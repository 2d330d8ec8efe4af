#ifndef IQLKIT_BASE_FLAGS_H_
#define IQLKIT_BASE_FLAGS_H_

#include <cstdint>
#include <limits>
#include <string_view>

#include "base/result.h"

namespace iqlkit {

// Strict parsing of a numeric command-line flag, given whole as
// "--name=VALUE". The value must be a complete decimal number of T inside
// [min, max] (T's own range by default):
//
//   ParseNumericFlag<uint16_t>("--port=8080")     -> 8080
//   ParseNumericFlag<uint16_t>("--port=70000")    -> INVALID_ARGUMENT
//   ParseNumericFlag<size_t>("--workers=-1")      -> INVALID_ARGUMENT
//   ParseNumericFlag<uint64_t>("--seed=12abc")    -> INVALID_ARGUMENT
//
// Unlike std::sto*, trailing bytes, an empty value, a sign on an unsigned
// type, and any value outside the range are errors rather than a prefix
// parse, a wrapped negative, or a silent narrowing cast. Floating-point
// values must also be finite. The error message names the flag and the
// offending value. T is one of uint16_t, uint32_t, uint64_t (size_t), int
// or double, the types flags.cc instantiates.
template <typename T>
Result<T> ParseNumericFlag(std::string_view arg,
                           T min = std::numeric_limits<T>::lowest(),
                           T max = std::numeric_limits<T>::max());

// The form flag loops use: parses `arg` into *out, which is left alone on
// error, and returns the verdict.
template <typename T>
Status SetNumericFlag(std::string_view arg, T* out,
                      T min = std::numeric_limits<T>::lowest(),
                      T max = std::numeric_limits<T>::max()) {
  Result<T> value = ParseNumericFlag<T>(arg, min, max);
  if (value.ok()) *out = *value;
  return value.status();
}

}  // namespace iqlkit

#endif  // IQLKIT_BASE_FLAGS_H_
