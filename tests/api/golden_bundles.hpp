#pragma once

// The golden `.hdlk` fixtures in tests/api/fixtures/ (its README.md says
// where they came from): one deployment's owner and device bundles as the
// v1, v2 and v3 writers wrote them, and rows.csv with the labels they
// serve.  CMake points HDLOCK_BUNDLE_FIXTURE_DIR at that directory for the
// api suite.

#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/error.hpp"

namespace hdlock::golden {

/// Every fixture bundle, as a path relative to the fixture directory.
inline constexpr std::array<const char*, 6> kBundles = {
    "v1/owner.hdlk", "v1/device.hdlk", "v2/owner.hdlk",
    "v2/device.hdlk", "v3/owner.hdlk", "v3/device.hdlk"};

inline std::filesystem::path path(const std::string& relative) {
    return std::filesystem::path(HDLOCK_BUNDLE_FIXTURE_DIR) / relative;
}

inline std::string bytes(const std::string& relative) {
    std::ifstream in(path(relative), std::ios::binary);
    if (!in) throw IoError("cannot open golden fixture " + path(relative).string());
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace hdlock::golden
