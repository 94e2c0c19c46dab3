// Tests for tagged binary serialization (src/util/serialize.*).

#include "util/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>
#include <string>

using hdlock::FormatError;
using hdlock::IoError;
using hdlock::util::BinaryReader;
using hdlock::util::BinaryWriter;

TEST(Serialize, ScalarRoundTrip) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_tag("HDLK");
    writer.write_u8(200);
    writer.write_u32(0xDEADBEEFu);
    writer.write_u64(0x0123456789ABCDEFull);
    writer.write_i32(-42);
    writer.write_i64(-(1ll << 40));
    writer.write_f64(3.14159);
    writer.write_string("hypervector");

    BinaryReader reader(stream);
    reader.expect_tag("HDLK");
    EXPECT_EQ(reader.read_u8(), 200);
    EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(reader.read_i32(), -42);
    EXPECT_EQ(reader.read_i64(), -(1ll << 40));
    EXPECT_DOUBLE_EQ(reader.read_f64(), 3.14159);
    EXPECT_EQ(reader.read_string(), "hypervector");
}

TEST(Serialize, VectorRoundTrip) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    const std::vector<std::uint64_t> words = {1, 2, 3, ~0ull};
    const std::vector<std::int32_t> counts = {-5, 0, 5};
    writer.write_span(std::span<const std::uint64_t>(words));
    writer.write_span(std::span<const std::int32_t>(counts));

    BinaryReader reader(stream);
    EXPECT_EQ(reader.read_vector<std::uint64_t>(), words);
    EXPECT_EQ(reader.read_vector<std::int32_t>(), counts);
}

TEST(Serialize, EmptyVectorAndString) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_span(std::span<const double>{});
    writer.write_string("");
    BinaryReader reader(stream);
    EXPECT_TRUE(reader.read_vector<double>().empty());
    EXPECT_TRUE(reader.read_string().empty());
}

TEST(Serialize, TagMismatchThrows) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_tag("AAAA");
    BinaryReader reader(stream);
    EXPECT_THROW(reader.expect_tag("BBBB"), FormatError);
}

TEST(Serialize, TruncatedStreamThrows) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_u32(7);
    BinaryReader reader(stream);
    EXPECT_EQ(reader.read_u32(), 7u);
    EXPECT_THROW(reader.read_u32(), FormatError);
}

TEST(Serialize, VectorLengthLimitEnforced) {
    std::stringstream stream;
    BinaryWriter writer(stream);
    writer.write_u64(1000);  // claimed length with no payload
    BinaryReader reader(stream);
    EXPECT_THROW(reader.read_vector<std::uint64_t>(10), FormatError);

    // A length under the limit but past the data: 2^32 - 1 words claimed,
    // 8 bytes present.  Both transports must fail on the missing bytes, not
    // allocate and zero the 32 GiB the claim asks for.
    std::stringstream claim;
    BinaryWriter claim_writer(claim);
    claim_writer.write_u64((1ULL << 32) - 1);
    claim_writer.write_u64(0x1234);
    const std::string bytes = claim.str();
    std::istringstream in(bytes, std::ios::binary);
    BinaryReader stream_reader(in);
    EXPECT_THROW(stream_reader.read_vector<std::uint64_t>(), FormatError);
    BinaryReader span_reader(std::as_bytes(std::span<const char>(bytes)));
    EXPECT_THROW(span_reader.read_vector<std::uint64_t>(), FormatError);
}

namespace {

/// Minimal serializable object for save_file/load_file round-trips.
struct Blob {
    std::vector<std::int32_t> payload;

    void save(BinaryWriter& writer) const {
        writer.write_tag("BLOB");
        writer.write_span(std::span<const std::int32_t>(payload));
    }

    static Blob load(BinaryReader& reader) {
        reader.expect_tag("BLOB");
        return Blob{reader.read_vector<std::int32_t>()};
    }
};

}  // namespace

TEST(Serialize, FileRoundTrip) {
    const auto path = std::filesystem::temp_directory_path() / "hdlock_serialize_test.bin";
    const Blob blob{{1, -2, 3, -4}};
    hdlock::util::save_file(blob, path);
    const Blob loaded = hdlock::util::load_file<Blob>(path);
    EXPECT_EQ(loaded.payload, blob.payload);
    std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrowsIoError) {
    EXPECT_THROW(hdlock::util::load_file<Blob>("/nonexistent/dir/file.bin"), IoError);
    EXPECT_THROW(hdlock::util::save_file(Blob{}, "/nonexistent/dir/file.bin"), IoError);
}
