// Error-handling helpers.
//
// Library-level contract violations throw `std::invalid_argument` /
// `std::logic_error` through the `throw_if` helpers so call sites stay
// one-liners. Internal invariants use EDGESCHED_ASSERT, which is active in
// all build types: the algorithms here are subtle enough that silently
// continuing past a broken invariant would poison every result downstream.
#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace edgesched {

/// Thrown when an internal invariant of the library is violated. Seeing
/// this exception always indicates a bug in edgesched, not in user code.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void fail_assert(std::string_view expr,
                                     std::string_view message,
                                     const std::source_location& loc) {
  std::ostringstream os;
  os << "edgesched internal error at " << loc.file_name() << ':' << loc.line()
     << " in " << loc.function_name() << ": assertion `" << expr << "` failed";
  if (!message.empty()) {
    os << " — " << message;
  }
  throw InternalError(os.str());
}

}  // namespace detail

/// Throws std::invalid_argument with `message` when `condition` is true.
/// The message is a view, so a literal costs nothing until it throws: the
/// `std::string` the exception owns is built only on the throwing path.
/// Hot loops (selection's per-candidate `processor_speed`, every route
/// search) call this per operation.
inline void throw_if(bool condition, std::string_view message) {
  if (condition) [[unlikely]] {
    throw std::invalid_argument(std::string(message));
  }
}

}  // namespace edgesched

#define EDGESCHED_ASSERT(expr)                                       \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::edgesched::detail::fail_assert(#expr, "",                    \
                                       std::source_location::current()); \
    }                                                                \
  } while (false)

#define EDGESCHED_ASSERT_MSG(expr, msg)                              \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::edgesched::detail::fail_assert(#expr, (msg),                 \
                                       std::source_location::current()); \
    }                                                                \
  } while (false)
