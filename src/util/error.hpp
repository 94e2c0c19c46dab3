#pragma once

/// \file error.hpp
/// Error hierarchy and contract-checking macro used across the library.
///
/// Every exception thrown by hdlock derives from hdlock::Error, so callers
/// can catch a single type at the boundary.  Documented preconditions are
/// enforced with HDLOCK_EXPECTS, which throws ContractViolation; this keeps
/// misuse observable (and testable) instead of undefined.

#include <stdexcept>
#include <string>

namespace hdlock {

/// Base class of all errors thrown by this library.
class Error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// An invalid configuration value (dimension, layer count, ...).
class ConfigError : public Error {
public:
    using Error::Error;
};

/// A filesystem / stream failure.
class IoError : public Error {
public:
    using Error::Error;
};

/// Malformed serialized data or an unparsable input file.
class FormatError : public Error {
public:
    using Error::Error;
};

/// A violated precondition of a public API.
class ContractViolation : public Error {
public:
    using Error::Error;
};

/// A key rotation or epoch-swap step failed.  The contract is that the
/// failure is *contained*: the previously installed epoch keeps serving and
/// any bundle on disk is left intact (save_atomic never tears the target).
class RotationError : public Error {
public:
    using Error::Error;
};

/// Work was refused or abandoned because the owning component is shutting
/// down — e.g. a predict_async future broken by destroying its session with
/// requests still queued.
class ShutdownError : public Error {
public:
    using Error::Error;
};

namespace detail {

[[noreturn]] inline void contract_failure(const char* expr, const char* file, int line,
                                          const std::string& message) {
    throw ContractViolation(std::string(file) + ":" + std::to_string(line) +
                            ": precondition `" + expr + "` violated: " + message);
}

}  // namespace detail
}  // namespace hdlock

/// Throws hdlock::ContractViolation when \p cond is false.
#define HDLOCK_EXPECTS(cond, msg)                                                       \
    do {                                                                                \
        if (!(cond)) ::hdlock::detail::contract_failure(#cond, __FILE__, __LINE__, (msg)); \
    } while (false)
