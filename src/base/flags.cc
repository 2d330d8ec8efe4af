#include "base/flags.h"

#include <charconv>
#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>

namespace iqlkit {
namespace {

// Splits "--name=VALUE" into its name and value.
struct FlagParts {
  std::string_view name;
  std::string_view value;
};

FlagParts Split(std::string_view arg) {
  size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return {arg, {}};
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

Status Bad(const FlagParts& flag, std::string_view why) {
  return InvalidArgumentError(std::string(flag.name) + ": bad value \"" +
                              std::string(flag.value) + "\": " +
                              std::string(why));
}

}  // namespace

template <typename T>
Result<T> ParseNumericFlag(std::string_view arg, T min, T max) {
  FlagParts flag = Split(arg);
  if (flag.value.empty()) return Bad(flag, "expected a number");
  if constexpr (std::is_unsigned_v<T>) {
    if (flag.value.front() == '-' || flag.value.front() == '+') {
      return Bad(flag, "expected an unsigned number, without a sign");
    }
  }
  const char* begin = flag.value.data();
  const char* end = begin + flag.value.size();
  T parsed{};
  auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc() && ec != std::errc::result_out_of_range) {
    return Bad(flag, "expected a number");
  }
  if (ptr != end) return Bad(flag, "trailing characters after the number");
  if constexpr (std::is_floating_point_v<T>) {
    if (ec == std::errc() && !std::isfinite(parsed)) {
      return Bad(flag, "expected a finite number");
    }
  }
  if (ec == std::errc::result_out_of_range || parsed < min || parsed > max) {
    std::ostringstream range;
    range << "out of range [" << min << ", " << max << "]";
    return Bad(flag, range.str());
  }
  return parsed;
}

template Result<uint16_t> ParseNumericFlag(std::string_view, uint16_t,
                                           uint16_t);
template Result<uint32_t> ParseNumericFlag(std::string_view, uint32_t,
                                           uint32_t);
template Result<uint64_t> ParseNumericFlag(std::string_view, uint64_t,
                                           uint64_t);
template Result<int> ParseNumericFlag(std::string_view, int, int);
template Result<double> ParseNumericFlag(std::string_view, double, double);

}  // namespace iqlkit
