#pragma once

/// \file cli_args.hpp
/// Flag parsing for hdlock_cli / hdlock_eval, split out so it is
/// unit-testable.
///
/// Grammar: `--flag=value` or `--flag value`; flags declared boolean at
/// construction stand alone (`--smoke`) and never consume the next
/// argument, while `--flag=value` still works for them (`--json=out.json`).
/// Repeated flags accumulate (get_all); the scalar accessors read the last
/// occurrence.  Two historical parser holes are closed here and covered by
/// tests/tools/cli_args_test.cc:
///
///  - a trailing non-boolean `--flag` with no value is a UsageError (the
///    old parser's bounds handling made it easy to silently consume past
///    the end of the argument list);
///  - each subcommand declares its known flags via check_known(), so a typo
///    like `--featurs` is reported by name instead of being ignored.
///
/// check_known() reports both: an unknown flag first, even when it is the
/// trailing one (`eval --list` names `--list` as unknown to `eval`), and a
/// known trailing flag with no value after that.
///
/// UsageError is the "exit code 2" class: the caller printed something the
/// tool cannot interpret, as opposed to a runtime failure (exit 1).

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace hdlock::cli {

/// Malformed command line: unknown flag, missing value, non-numeric number.
class UsageError : public Error {
public:
    using Error::Error;
};

class Args {
public:
    /// Parses argv[first..argc). Throws UsageError on a bare non-flag
    /// argument.  A trailing non-boolean flag with no value is held for
    /// check_known() and for the accessors, which throw UsageError on it.
    /// Flags named in `boolean_flags` stand alone: `--smoke` parses as the
    /// empty value and never swallows the following argument;
    /// `--flag=value` remains available for them.
    Args(int argc, char** argv, int first,
         std::initializer_list<std::string_view> boolean_flags = {}) {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (!arg.starts_with("--") || arg.size() == 2) {
                throw UsageError("unexpected argument: " + arg);
            }
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                values_[arg.substr(2, eq - 2)].push_back(arg.substr(eq + 1));
                continue;
            }
            const std::string name = arg.substr(2);
            const bool is_boolean =
                std::find(boolean_flags.begin(), boolean_flags.end(), name) !=
                boolean_flags.end();
            if (is_boolean) {
                values_[name].push_back("");
            } else if (i + 1 < argc) {
                values_[name].push_back(argv[++i]);
            } else {
                values_.try_emplace(name);  // listed for check_known, no value
                valueless_ = name;
            }
        }
    }

    /// Throws UsageError naming every flag not in `known`, then, if all are
    /// known, a trailing flag that has no value — call once per subcommand
    /// with its full flag list.
    void check_known(std::string_view subcommand,
                     std::initializer_list<std::string_view> known) const {
        std::vector<std::string> unknown;
        for (const auto& [name, value] : values_) {
            bool found = false;
            for (const auto candidate : known) found = found || candidate == name;
            if (!found) unknown.push_back("--" + name);
        }
        if (!unknown.empty()) {
            std::string message = "unknown flag(s) for '" + std::string(subcommand) + "':";
            for (const auto& flag : unknown) message += " " + flag;
            throw UsageError(message);
        }
        if (!valueless_.empty()) throw_valueless_();
    }

    std::string require(const std::string& name) const {
        const auto found = find_(name);
        if (found == values_.end()) throw UsageError("missing required flag --" + name);
        return found->second.back();
    }

    std::string get(const std::string& name, const std::string& fallback) const {
        const auto found = find_(name);
        return found == values_.end() ? fallback : found->second.back();
    }

    /// Every occurrence of a repeated flag, in command-line order.
    std::vector<std::string> get_all(const std::string& name) const {
        const auto found = find_(name);
        return found == values_.end() ? std::vector<std::string>{} : found->second;
    }

    std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const {
        const auto found = find_(name);
        if (found == values_.end()) return fallback;
        const std::string& raw = found->second.back();
        // Digits only: std::stoull would happily wrap "-1" to 2^64 - 1.
        if (raw.empty() || raw.find_first_not_of("0123456789") != std::string::npos) {
            throw UsageError("flag --" + name + " expects a non-negative number, got '" + raw +
                             "'");
        }
        try {
            return std::stoull(raw);
        } catch (const std::exception&) {  // out_of_range
            throw UsageError("flag --" + name + " value is out of range: '" + raw + "'");
        }
    }

    bool has(const std::string& name) const { return find_(name) != values_.end(); }

private:
    using Values = std::map<std::string, std::vector<std::string>>;

    /// Every accessor looks up through here, so reading a flag that was
    /// left without a value throws instead of falling back.
    Values::const_iterator find_(const std::string& name) const {
        if (!valueless_.empty() && name == valueless_) throw_valueless_();
        return values_.find(name);
    }

    [[noreturn]] void throw_valueless_() const {
        throw UsageError("flag needs a value: --" + valueless_);
    }

    Values values_;
    /// A trailing non-boolean flag with no argument left to take; empty
    /// when there is none.
    std::string valueless_;
};

}  // namespace hdlock::cli
