#ifndef IQLKIT_STORAGE_IO_H_
#define IQLKIT_STORAGE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/result.h"
#include "base/status.h"

namespace iqlkit {
namespace storage {

// Low-level durable-file primitives. Every write path consults the
// FaultSite::kStorage injection site; when the site fires, the n-th
// injected fault deterministically picks one of three real failure modes
// (short write, fsync failure, crash between write and rename), leaving the
// filesystem in exactly the torn state a real crash would — the recovery
// path must then cope with it, which is what the crash soak exercises.

// Creates `path` (and missing parents) as a directory. EEXIST is success.
Status EnsureDir(const std::string& path);

// Whole-file read. NotFound when the file does not exist.
Result<std::string> ReadFileBytes(const std::string& path);

// Crash-atomic whole-file replace: write `path`.tmp, fsync, rename over
// `path`, fsync the directory. Readers see either the old or the new
// content, never a mix. Injected faults surface as kUnavailable and may
// leave a stale .tmp behind (which recovery ignores).
Status AtomicWriteFile(const std::string& path, std::string_view bytes,
                       bool fsync);

// Append-only log file handle. Open creates the file when missing and
// positions at the end; Append writes one pre-framed record and optionally
// fsyncs. An injected short write really does leave a torn tail on disk.
class AppendLog {
 public:
  AppendLog() = default;
  AppendLog(AppendLog&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  AppendLog& operator=(AppendLog&& other) noexcept;
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;
  ~AppendLog() { Close(); }

  static Result<AppendLog> Open(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  Status Append(std::string_view bytes, bool fsync);
  void Close();

 private:
  explicit AppendLog(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace storage
}  // namespace iqlkit

#endif  // IQLKIT_STORAGE_IO_H_
