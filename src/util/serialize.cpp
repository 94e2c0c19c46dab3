#include "util/serialize.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>

#include "util/fault_inject.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace hdlock::util {

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host; add byte swapping "
              "before porting to a big-endian target");

void BinaryWriter::write_bytes(std::span<const std::byte> bytes) {
    out_.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    if (!out_) throw IoError("BinaryWriter: stream write failed");
    offset_ += bytes.size();
}

void BinaryWriter::align_to(std::size_t alignment) {
    HDLOCK_EXPECTS(alignment != 0 && (alignment & (alignment - 1)) == 0,
                   "BinaryWriter::align_to: alignment must be a power of two");
    static constexpr std::array<std::byte, 64> kZeros{};
    while (offset_ % alignment != 0) {
        const std::size_t pad = std::min<std::size_t>(
            alignment - static_cast<std::size_t>(offset_ % alignment), kZeros.size());
        write_bytes(std::span<const std::byte>(kZeros.data(), pad));
    }
}

void BinaryWriter::write_tag(std::string_view tag) {
    HDLOCK_EXPECTS(tag.size() == 4, "tags must be exactly four bytes");
    write_bytes(std::as_bytes(std::span<const char>(tag.data(), tag.size())));
}

void BinaryWriter::write_u8(std::uint8_t v) {
    write_bytes(std::as_bytes(std::span<const std::uint8_t>(&v, 1)));
}

void BinaryWriter::write_u32(std::uint32_t v) {
    write_bytes(std::as_bytes(std::span<const std::uint32_t>(&v, 1)));
}

void BinaryWriter::write_u64(std::uint64_t v) {
    write_bytes(std::as_bytes(std::span<const std::uint64_t>(&v, 1)));
}

void BinaryWriter::write_i32(std::int32_t v) {
    write_bytes(std::as_bytes(std::span<const std::int32_t>(&v, 1)));
}

void BinaryWriter::write_i64(std::int64_t v) {
    write_bytes(std::as_bytes(std::span<const std::int64_t>(&v, 1)));
}

void BinaryWriter::write_f64(double v) {
    write_bytes(std::as_bytes(std::span<const double>(&v, 1)));
}

void BinaryWriter::write_string(std::string_view s) {
    write_u64(s.size());
    write_bytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
}

void BinaryReader::read_bytes(std::span<std::byte> bytes) {
    if (in_ != nullptr) {
        in_->read(reinterpret_cast<char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (in_->gcount() != static_cast<std::streamsize>(bytes.size())) {
            throw FormatError("BinaryReader: unexpected end of stream");
        }
    } else {
        if (bytes.size() > data_.size() - offset_) {
            throw FormatError("BinaryReader: unexpected end of buffer");
        }
        // An empty span may carry a null pointer, which memcpy must not get.
        if (!bytes.empty()) std::memcpy(bytes.data(), data_.data() + offset_, bytes.size());
    }
    offset_ += bytes.size();
}

const std::byte* BinaryReader::view_bytes(std::size_t n) {
    HDLOCK_EXPECTS(mapped(), "BinaryReader::view_bytes: stream backend cannot hand out views");
    if (n > data_.size() - offset_) {
        throw FormatError("BinaryReader: unexpected end of buffer");
    }
    const std::byte* view = data_.data() + offset_;
    offset_ += n;
    return view;
}

void BinaryReader::align_to(std::size_t alignment) {
    HDLOCK_EXPECTS(alignment != 0 && (alignment & (alignment - 1)) == 0,
                   "BinaryReader::align_to: alignment must be a power of two");
    while (offset_ % alignment != 0) {
        if (read_u8() != 0) {
            throw FormatError("BinaryReader: non-zero section padding (misaligned or corrupt "
                              "section)");
        }
    }
}

void BinaryReader::expect_tag(std::string_view tag) {
    HDLOCK_EXPECTS(tag.size() == 4, "tags must be exactly four bytes");
    std::array<char, 4> found{};
    read_bytes(std::as_writable_bytes(std::span<char>(found)));
    if (std::string_view(found.data(), 4) != tag) {
        throw FormatError("BinaryReader: expected tag '" + std::string(tag) + "' but found '" +
                          std::string(found.data(), 4) + "'");
    }
}

std::uint8_t BinaryReader::read_u8() {
    std::uint8_t v = 0;
    read_bytes(std::as_writable_bytes(std::span<std::uint8_t>(&v, 1)));
    return v;
}

std::uint32_t BinaryReader::read_u32() {
    std::uint32_t v = 0;
    read_bytes(std::as_writable_bytes(std::span<std::uint32_t>(&v, 1)));
    return v;
}

std::uint64_t BinaryReader::read_u64() {
    std::uint64_t v = 0;
    read_bytes(std::as_writable_bytes(std::span<std::uint64_t>(&v, 1)));
    return v;
}

std::int32_t BinaryReader::read_i32() {
    std::int32_t v = 0;
    read_bytes(std::as_writable_bytes(std::span<std::int32_t>(&v, 1)));
    return v;
}

std::int64_t BinaryReader::read_i64() {
    std::int64_t v = 0;
    read_bytes(std::as_writable_bytes(std::span<std::int64_t>(&v, 1)));
    return v;
}

double BinaryReader::read_f64() {
    double v = 0.0;
    read_bytes(std::as_writable_bytes(std::span<double>(&v, 1)));
    return v;
}

std::string BinaryReader::read_string() {
    const std::uint64_t n = read_u64();
    if (n > (1ULL << 24)) throw FormatError("BinaryReader: unreasonable string length");
    std::string s(static_cast<std::size_t>(n), '\0');
    read_bytes(std::as_writable_bytes(std::span<char>(s.data(), s.size())));
    return s;
}

// ---------------------------------------------------------------------------
// atomic_file_write
// ---------------------------------------------------------------------------

namespace {

std::string errno_detail() {
    const int code = errno;
    return " (errno " + std::to_string(code) + ", " + std::strerror(code) + ")";
}

/// fsync(2) the given path (a file or directory); throws IoError unless the
/// platform has no fsync, where durability falls back to the OS cache.
void fsync_path(const std::filesystem::path& path, bool directory) {
#if defined(__unix__) || defined(__APPLE__)
    const int flags = directory ? O_RDONLY | O_DIRECTORY : O_RDONLY;
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0) {
        throw IoError("atomic_file_write: cannot open for fsync: " + path.string() +
                      errno_detail());
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0 || fault::should_fail(fault::kBundleFsync)) {
        throw IoError("atomic_file_write: fsync failed: " + path.string() +
                      (rc != 0 ? errno_detail() : " (fault injected)"));
    }
#else
    (void)path;
    (void)directory;
    if (fault::should_fail(fault::kBundleFsync)) {
        throw IoError("atomic_file_write: fsync failed: " + path.string() + " (fault injected)");
    }
#endif
}

}  // namespace

void atomic_file_write(const std::filesystem::path& path,
                       const std::function<void(BinaryWriter&)>& write_fn) {
    // Serialize to memory first: the temp file then receives the payload in
    // one write, so a short write is the only mid-file failure mode — and it
    // hits the temp, never `path`.
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter writer(buffer);
    write_fn(writer);
    const std::string payload = std::move(buffer).str();

    const std::filesystem::path temp = path.string() + ".tmp";
    struct TempGuard {
        const std::filesystem::path& temp;
        bool keep = false;
        ~TempGuard() {
            if (!keep) {
                std::error_code discard;
                std::filesystem::remove(temp, discard);
            }
        }
    } guard{temp};

    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw IoError("atomic_file_write: cannot open for writing: " + temp.string() +
                          errno_detail());
        }
        std::size_t n = payload.size();
        if (fault::should_fail(fault::kBundleShortWrite)) n /= 2;  // tear the *temp* only
        out.write(payload.data(), static_cast<std::streamsize>(n));
        out.flush();
        if (!out || n != payload.size()) {
            throw IoError("atomic_file_write: short write: " + temp.string() +
                          (n != payload.size() ? " (fault injected)" : errno_detail()));
        }
    }
    fsync_path(temp, /*directory=*/false);

    if (fault::should_fail(fault::kBundleRename)) {
        throw IoError("atomic_file_write: rename failed: " + temp.string() + " -> " +
                      path.string() + " (fault injected)");
    }
    std::error_code rename_error;
    std::filesystem::rename(temp, path, rename_error);
    if (rename_error) {
        throw IoError("atomic_file_write: rename failed: " + temp.string() + " -> " +
                      path.string() + " (" + rename_error.message() + ")");
    }
    guard.keep = true;
    // Persist the directory entry; the parent of a relative bare filename is
    // the working directory.
    const std::filesystem::path parent =
        path.has_parent_path() ? path.parent_path() : std::filesystem::path(".");
    fsync_path(parent, /*directory=*/true);
}

}  // namespace hdlock::util
