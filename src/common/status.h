#ifndef REDY_COMMON_STATUS_H_
#define REDY_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace redy {

/// Canonical error codes, modeled after the RocksDB/Arrow status idiom.
/// Library code never throws; every fallible operation returns a Status
/// (or a Result<T>, see result.h).
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kResourceExhausted = 4,
  kFailedPrecondition = 5,
  kUnavailable = 6,
  kOutOfRange = 7,
  kAborted = 8,
  kInternal = 9,
  kUnimplemented = 10,
  kDeadlineExceeded = 11,
  // A remote access was fenced off: the rkey was revoked (stale access
  // epoch), the region was deregistered, or a region lease lapsed.
  kProtectionError = 12,
  // Payload bytes failed an end-to-end integrity check (checksum
  // mismatch) — the data arrived, but it is not the data that was sent.
  kDataCorruption = 13,
  // Explicit overload pushback: the server shed the request instead of
  // queueing it (credit-based flow control, DESIGN.md §12). Retryable,
  // but with a longer backoff than a transport fault — the server is
  // telling the client to slow down, not that the request was lost.
  kBusy = 14,
};

/// Returns a short human-readable name for `code` ("OK", "NotFound", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A Status holds an error code plus an optional message. The OK status
/// carries no allocation and is cheap to copy.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ProtectionError(std::string msg) {
    return Status(StatusCode::kProtectionError, std::move(msg));
  }
  static Status DataCorruption(std::string msg) {
    return Status(StatusCode::kDataCorruption, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsProtectionError() const {
    return code_ == StatusCode::kProtectionError;
  }
  bool IsDataCorruption() const {
    return code_ == StatusCode::kDataCorruption;
  }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK status to the caller.
#define REDY_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::redy::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace redy

#endif  // REDY_COMMON_STATUS_H_
