// Always-on invariant checks.

#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

namespace bullet {

namespace log_internal {

[[noreturn]] void CheckFail(const char* condition, const char* file, int line);

}  // namespace log_internal

// Always-on invariant check (release builds included): prints the failed
// condition with its location to stderr and aborts. Used for cheap structural
// invariants (index bounds, id-space overflow) whose violation would otherwise
// corrupt a simulation silently; attach context with the `cond && "message"`
// idiom.
#define BULLET_CHECK(cond)                                                  \
  ((cond) ? static_cast<void>(0)                                            \
          : ::bullet::log_internal::CheckFail(#cond, __FILE__, __LINE__))

}  // namespace bullet

#endif  // SRC_COMMON_LOGGING_H_
