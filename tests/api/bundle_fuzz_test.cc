// Fuzz-style robustness tests for the `.hdlk` loader (src/api/bundle.*):
// systematic truncation sweeps and header/byte corruption over both bundle
// kinds, every format version (a fresh v3 pair plus the golden v1-v3
// fixtures) and both reader transports (stream and span/mmap).  The contract
// under attack: a hostile or damaged artifact may only ever produce a typed
// hdlock::Error (FormatError for malformed bytes) — never a crash, an OOB
// read, an unbounded allocation, or a silently wrong bundle.

#include "api/bundle.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "api/facades.hpp"
#include "data/synthetic.hpp"
#include "golden_bundles.hpp"
#include "util/error.hpp"

namespace {

using namespace hdlock;

api::Owner trained_owner() {
    DeploymentConfig config;
    config.dim = 512;
    config.n_features = 12;
    config.n_levels = 4;
    config.n_layers = 2;
    config.seed = 31;
    data::SyntheticSpec spec;
    spec.name = "fuzz";
    spec.n_features = 12;
    spec.n_classes = 3;
    spec.n_train = 90;
    spec.n_test = 30;
    spec.n_levels = 4;
    spec.seed = 8;
    api::Owner owner = api::Owner::provision(config);
    owner.train(data::make_benchmark(spec).train);
    return owner;
}

std::string serialize(const api::DeploymentBundle& bundle) {
    std::ostringstream out(std::ios::binary);
    util::BinaryWriter writer(out);
    bundle.save(writer);
    return out.str();
}

/// Outcome of one hostile-load attempt.
enum class LoadOutcome { loaded, typed_error, wrong_exception };

LoadOutcome try_load_stream(const std::string& bytes) {
    try {
        std::istringstream in(bytes, std::ios::binary);
        util::BinaryReader reader(in);
        (void)api::DeploymentBundle::load(reader);
        return LoadOutcome::loaded;
    } catch (const Error&) {
        return LoadOutcome::typed_error;
    } catch (...) {
        return LoadOutcome::wrong_exception;
    }
}

LoadOutcome try_load_span(const std::string& bytes) {
    try {
        util::BinaryReader reader(std::as_bytes(std::span<const char>(bytes)));
        (void)api::DeploymentBundle::load(reader);
        return LoadOutcome::loaded;
    } catch (const Error&) {
        return LoadOutcome::typed_error;
    } catch (...) {
        return LoadOutcome::wrong_exception;
    }
}

/// The serialized corpora every sweep runs against: a fresh owner/device
/// pair from today's writer, then the six golden fixtures (v1-v3).
std::vector<std::pair<std::string, std::string>> corpora() {
    const api::Owner owner = trained_owner();
    std::vector<std::pair<std::string, std::string>> out = {
        {"owner", serialize(owner.to_bundle())}, {"device", serialize(owner.to_device_bundle())}};
    for (const std::string fixture : golden::kBundles) {
        out.emplace_back(fixture, golden::bytes(fixture));
    }
    return out;
}

std::uint64_t u64_at(const std::string& bytes, std::size_t offset) {
    std::uint64_t value = 0;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

void set_u64(std::string& bytes, std::size_t offset, std::uint64_t value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

TEST(BundleFuzz, EveryTruncationRaisesATypedError) {
    for (const auto& [kind, bytes] : corpora()) {
        // Every length in the header region, then a stride through the bulk
        // sections: cheap enough to run exhaustively where structure is
        // dense, sampled where it is a flat word array.
        std::vector<std::size_t> lengths;
        for (std::size_t n = 0; n < std::min<std::size_t>(bytes.size(), 96); ++n) {
            lengths.push_back(n);
        }
        for (std::size_t n = 96; n < bytes.size(); n += 101) lengths.push_back(n);
        lengths.push_back(bytes.size() - 1);

        for (const std::size_t n : lengths) {
            const std::string truncated = bytes.substr(0, n);
            EXPECT_EQ(try_load_stream(truncated), LoadOutcome::typed_error)
                << kind << " truncated to " << n << " of " << bytes.size() << " bytes (stream)";
            EXPECT_EQ(try_load_span(truncated), LoadOutcome::typed_error)
                << kind << " truncated to " << n << " of " << bytes.size() << " bytes (span)";
        }
        // Sanity: the untruncated corpus loads on both transports.
        EXPECT_EQ(try_load_stream(bytes), LoadOutcome::loaded) << kind;
        EXPECT_EQ(try_load_span(bytes), LoadOutcome::loaded) << kind;
    }
}

TEST(BundleFuzz, TrailingGarbageAfterHendIsHarmless) {
    // load() consumes through HEND; bytes past it belong to the caller
    // (bundles embed in larger files).  Nothing to reject, nothing to read.
    for (const auto& [kind, bytes] : corpora()) {
        EXPECT_EQ(try_load_stream(bytes + std::string(64, '\xee')), LoadOutcome::loaded) << kind;
    }
}

TEST(BundleFuzz, HeaderByteFlipsNeverEscapeTheTypedErrorContract) {
    // Flip every byte of the structured prefix (tag, version, kind,
    // tie_seed, flags, epoch, first section header) through hostile values.
    // Any outcome is acceptable except a non-hdlock exception or a crash:
    // some flips are benign (tie_seed, epoch), the rest must be FormatError.
    for (const auto& [kind, bytes] : corpora()) {
        const std::size_t prefix = std::min<std::size_t>(bytes.size(), 64);
        for (std::size_t i = 0; i < prefix; ++i) {
            for (const unsigned char value : {0x00, 0xFF, 0x80, 0x01}) {
                std::string mutated = bytes;
                if (static_cast<unsigned char>(mutated[i]) == value) continue;
                mutated[i] = static_cast<char>(value);
                EXPECT_NE(try_load_stream(mutated), LoadOutcome::wrong_exception)
                    << kind << ": byte " << i << " set to " << static_cast<int>(value)
                    << " (stream)";
                EXPECT_NE(try_load_span(mutated), LoadOutcome::wrong_exception)
                    << kind << ": byte " << i << " set to " << static_cast<int>(value)
                    << " (span)";
            }
        }
    }
}

TEST(BundleFuzz, OversizedCountsAreRejectedNotAllocated) {
    // Hand-build a header whose section count field claims 2^60 entries: the
    // loader must reject it as FormatError without attempting the
    // allocation.  (The count caps in the section loaders and
    // BinaryReader::read_vector are the fix this test pins.)
    const auto corpus = corpora();
    const auto& [kind, bytes] = corpus.front();
    for (const std::size_t offset : {std::size_t{9}, std::size_t{17}, std::size_t{25}}) {
        std::string mutated = bytes;
        if (mutated.size() < offset + 8) continue;
        set_u64(mutated, offset, 1ULL << 60);
        const LoadOutcome outcome = try_load_stream(mutated);
        EXPECT_NE(outcome, LoadOutcome::wrong_exception)
            << kind << ": u64 at offset " << offset << " set to 2^60";
    }

    // The count fields the loaders size allocations from, found by their
    // section tags in the golden fixtures (the assertions pin each offset
    // to the field's known value).  A claim must fail as a typed error on
    // both transports whether it is absurd (2^60), larger than the file
    // (2^30) or just under the loaders' 2^24 cap.
    struct Site {
        std::string fixture;
        std::string field;
        std::size_t offset;
    };
    std::vector<Site> sites;
    constexpr std::size_t kV1Record = 4 + 8 + 8 + 4 * 8;  // "BHV1", dim, count, 4 words
    for (const std::string fixture : {"v1/owner.hdlk", "v1/device.hdlk"}) {
        const std::string fixture_bytes = golden::bytes(fixture);
        const std::size_t bases = fixture_bytes.find("PUBS") + 4 + 8;  // past the dim
        ASSERT_EQ(u64_at(fixture_bytes, bases), 16u) << fixture;
        const std::size_t values = bases + 8 + 16 * kV1Record;
        ASSERT_EQ(u64_at(fixture_bytes, values), 4u) << fixture;
        sites.push_back({fixture, "PUBS base count", bases});
        sites.push_back({fixture, "PUBS value count", values});
    }
    for (const std::string fixture : {"v1/owner.hdlk", "v2/owner.hdlk", "v3/owner.hdlk"}) {
        const std::string fixture_bytes = golden::bytes(fixture);
        const std::size_t n_features = fixture_bytes.find("LKEY") + 4;
        ASSERT_EQ(u64_at(fixture_bytes, n_features), 16u) << fixture;
        sites.push_back({fixture, "LKEY n_features", n_features});
    }
    for (const std::string fixture :
         {"v2/owner.hdlk", "v2/device.hdlk", "v3/owner.hdlk", "v3/device.hdlk"}) {
        const std::string fixture_bytes = golden::bytes(fixture);
        const std::size_t bases = fixture_bytes.find("PUB2") + 4 + 8;  // past the dim
        ASSERT_EQ(u64_at(fixture_bytes, bases), 16u) << fixture;
        sites.push_back({fixture, "PUB2 base count", bases});
    }
    for (const std::string fixture : {"v2/device.hdlk", "v3/device.hdlk"}) {
        const std::string fixture_bytes = golden::bytes(fixture);
        const std::size_t n_features = fixture_bytes.find("SEN2") + 4;
        ASSERT_EQ(u64_at(fixture_bytes, n_features), 16u) << fixture;
        sites.push_back({fixture, "SEN2 feature count", n_features});
    }
    for (const std::string fixture : {"v3/owner.hdlk", "v3/device.hdlk"}) {
        // "DSC1", u64 n_levels, u8 mode, then the min vector's length.
        const std::string fixture_bytes = golden::bytes(fixture);
        const std::size_t mins = fixture_bytes.find("DSC1") + 4 + 8 + 1;
        ASSERT_EQ(u64_at(fixture_bytes, mins), 1u) << fixture;  // one global range
        sites.push_back({fixture, "DSC1 min length", mins});
    }
    for (const auto& site : sites) {
        for (const std::uint64_t claim : {1ULL << 60, 1ULL << 30, (1ULL << 24) - 1}) {
            std::string mutated = golden::bytes(site.fixture);
            set_u64(mutated, site.offset, claim);
            EXPECT_EQ(try_load_stream(mutated), LoadOutcome::typed_error)
                << site.fixture << ": " << site.field << " = " << claim << " (stream)";
            EXPECT_EQ(try_load_span(mutated), LoadOutcome::typed_error)
                << site.fixture << ": " << site.field << " = " << claim << " (span)";
        }
    }

    // A key shape whose entry count wraps: 2^63 features x 2 layers = 0
    // entries, with the 16 x 2 entries cut out so the section parses.  It
    // must not load as a key with an empty entry table.
    std::string wrapped = golden::bytes("v3/owner.hdlk");
    const std::size_t key_shape = wrapped.find("LKEY") + 4;
    ASSERT_EQ(u64_at(wrapped, key_shape + 8), 2u);  // n_layers
    ASSERT_EQ(u64_at(wrapped, key_shape + 16), 32u);  // n_entries
    set_u64(wrapped, key_shape, 1ULL << 63);
    set_u64(wrapped, key_shape + 16, 0);
    wrapped.erase(key_shape + 24, 32 * 8);
    ASSERT_EQ(wrapped.substr(key_shape + 24, 4), "VMAP");
    EXPECT_EQ(try_load_stream(wrapped), LoadOutcome::typed_error);
    EXPECT_EQ(try_load_span(wrapped), LoadOutcome::typed_error);
}

TEST(BundleFuzz, AbsurdVersionIsNamedInTheError) {
    std::string mutated = corpora().front().second;
    mutated[4] = '\x2a';  // version 42
    mutated[5] = mutated[6] = mutated[7] = '\x00';
    try {
        std::istringstream in(mutated, std::ios::binary);
        util::BinaryReader reader(in);
        (void)api::DeploymentBundle::load(reader);
        FAIL() << "version 42 should not load";
    } catch (const FormatError& error) {
        EXPECT_NE(std::string(error.what()).find("42"), std::string::npos) << error.what();
    }
}

}  // namespace
