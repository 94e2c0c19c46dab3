#pragma once

/// \file serialize.hpp
/// Minimal tagged binary serialization.
///
/// Formats are explicit: fixed-width little-endian integers with 4-byte ASCII
/// section tags, so files are stable across platforms and versions can be
/// checked.  Objects implement `void save(BinaryWriter&) const` and
/// `static T load(BinaryReader&)`; save_file()/load_file() wrap streams.

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace hdlock::util {

class BinaryWriter {
public:
    explicit BinaryWriter(std::ostream& out) : out_(out) {}

    /// Bytes written through this writer so far.  The `.hdlk` v2 format
    /// aligns its bulk word sections on this count, so writers must start at
    /// the beginning of the artifact (they always do).
    std::uint64_t offset() const noexcept { return offset_; }

    /// Pads with zero bytes until offset() is a multiple of `alignment`
    /// (a power of two).  Pairs with BinaryReader::align_to.
    void align_to(std::size_t alignment);

    void write_tag(std::string_view tag);
    void write_u8(std::uint8_t v);
    void write_u32(std::uint32_t v);
    void write_u64(std::uint64_t v);
    void write_i32(std::int32_t v);
    void write_i64(std::int64_t v);
    void write_f64(double v);
    void write_string(std::string_view s);

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void write_span(std::span<const T> values) {
        write_u64(values.size());
        write_bytes(std::as_bytes(values));
    }

    void write_bytes(std::span<const std::byte> bytes);

private:
    std::ostream& out_;
    std::uint64_t offset_ = 0;
};

/// Reads the tagged format back from either an istream or an in-memory byte
/// span (a util::MappedFile's contents).  The span backend additionally
/// supports *views*: view_bytes() hands back a pointer into the backing
/// buffer instead of copying, which is what lets `.hdlk` v2 loads alias
/// hypervector words straight out of the mapping.
class BinaryReader {
public:
    explicit BinaryReader(std::istream& in) : in_(&in) {}
    explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}

    /// True when backed by a byte span (view_bytes() is available).
    bool mapped() const noexcept { return in_ == nullptr; }

    /// Bytes consumed so far.
    std::uint64_t offset() const noexcept { return offset_; }

    /// Consumes padding until offset() is a multiple of `alignment`; every
    /// padding byte must be zero (corrupt or misaligned sections are a
    /// FormatError here, before any word data is interpreted).
    void align_to(std::size_t alignment);

    /// Span backend only: returns a pointer to the next `n` bytes inside the
    /// backing buffer and consumes them.  Throws ContractViolation on the
    /// stream backend and FormatError past the end of the buffer.
    const std::byte* view_bytes(std::size_t n);

    /// Throws FormatError when the next four bytes differ from `tag`.
    void expect_tag(std::string_view tag);
    std::uint8_t read_u8();
    std::uint32_t read_u32();
    std::uint64_t read_u64();
    std::int32_t read_i32();
    std::int64_t read_i64();
    double read_f64();
    std::string read_string();

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    std::vector<T> read_vector(std::uint64_t max_elements = (1ULL << 32)) {
        const std::uint64_t n = read_u64();
        if (n > max_elements) {
            throw FormatError("serialized vector length " + std::to_string(n) +
                              " exceeds limit " + std::to_string(max_elements));
        }
        // Allocate for bytes that are present, not for the claimed length:
        // fill bounded chunks until the count or the end of the input (a
        // FormatError from read_bytes) ends it.
        std::vector<T> values;
        constexpr std::uint64_t kChunk = std::max<std::size_t>(1, (1u << 16) / sizeof(T));
        while (values.size() < n) {
            const std::size_t filled = values.size();
            values.resize(filled + static_cast<std::size_t>(std::min(n - filled, kChunk)));
            read_bytes(std::as_writable_bytes(std::span<T>(values).subspan(filled)));
        }
        return values;
    }

    void read_bytes(std::span<std::byte> bytes);

private:
    std::istream* in_ = nullptr;
    std::span<const std::byte> data_{};
    std::uint64_t offset_ = 0;
};

/// Serializes `object` to `path`, throwing IoError on filesystem failure.
template <typename T>
void save_file(const T& object, const std::filesystem::path& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw IoError("cannot open for writing: " + path.string());
    BinaryWriter writer(out);
    object.save(writer);
    out.flush();
    if (!out) throw IoError("write failed: " + path.string());
}

/// Deserializes a T from `path`.
template <typename T>
T load_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open for reading: " + path.string());
    BinaryReader reader(in);
    return T::load(reader);
}

/// Crash-safe replace of `path`: `write_fn` serializes into a sibling
/// temporary (`<path>.tmp`), the temp is flushed and fsync'd, then renamed
/// over `path` and the directory fsync'd — a crash or failure at any point
/// leaves either the old file or the new file, never a torn mix.  On any
/// failure the temp is removed and IoError (with errno detail) is thrown;
/// the target is untouched.  Failpoints (util/fault_inject.hpp):
/// bundle.save_atomic.{short_write,fsync,rename}.
void atomic_file_write(const std::filesystem::path& path,
                       const std::function<void(BinaryWriter&)>& write_fn);

}  // namespace hdlock::util
