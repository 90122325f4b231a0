// Error types and contract-checking helpers.
//
// Following the C++ Core Guidelines (I.5/I.6, E.*): interface preconditions
// are stated and checked; violations signal programmer error and throw a
// dedicated exception type carrying the failing expression and location.
#pragma once

#include <stdexcept>
#include <string>

namespace rcp {

/// Base class for all rcp errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// An internal invariant did not hold (a bug in this library).
class InvariantError : public Error {
 public:
  using Error::Error;
};

/// Malformed bytes were handed to a wire-format decoder.
class DecodeError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] void throw_precondition(const char* expr, const char* file,
                                     int line, const std::string& msg);
[[noreturn]] void throw_invariant(const char* expr, const char* file, int line,
                                  const std::string& msg);
}  // namespace detail

}  // namespace rcp

/// Marks a function noexcept in release builds only — for hot-path
/// operations whose debug builds carry a throwing RCP_EXPECT guard that
/// release builds compile out (e.g. EchoEngine::echo_dedup_size).
#ifdef NDEBUG
#define RCP_RELEASE_NOEXCEPT noexcept
#else
#define RCP_RELEASE_NOEXCEPT
#endif

/// Checks a documented precondition of a public interface.
#define RCP_EXPECT(cond, msg)                                             \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::rcp::detail::throw_precondition(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                     \
  } while (false)

/// Checks an internal invariant; failure indicates a library bug.
#define RCP_INVARIANT(cond, msg)                                        \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::rcp::detail::throw_invariant(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                   \
  } while (false)
