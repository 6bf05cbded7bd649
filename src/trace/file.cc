/**
 * @file
 * Trace file reader/writer implementation.
 */

#include "trace/file.h"

#include <cstring>
#include <stdexcept>

#include "obs/log.h"

namespace ibs {

namespace {

constexpr char MAGIC[4] = {'I', 'B', 'S', 'T'};
constexpr uint16_t VERSION = 1;
constexpr size_t BUF_SIZE = 1 << 16;

// Tag byte layout: bits 0-1 kind, bit 2 "asid follows".
constexpr uint8_t TAG_KIND_MASK = 0x3;
constexpr uint8_t TAG_ASID = 0x4;

uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path)
    : path_(path), buf_(new uint8_t[BUF_SIZE])
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        throw std::runtime_error("TraceFileWriter: cannot open " + path);
    // Placeholder header; record count patched in close().
    uint8_t header[16] = {};
    std::memcpy(header, MAGIC, 4);
    std::memcpy(header + 4, &VERSION, 2);
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        throw std::runtime_error("TraceFileWriter: header write failed");
}

TraceFileWriter::~TraceFileWriter()
{
    if (!file_)
        return;
    // close() throws on flush/seek/fclose failure; a destructor must
    // never let that escape (throwing during stack unwinding is
    // std::terminate). Swallow and warn — callers who care about the
    // failure call close() explicitly and get the exception.
    try {
        close();
    } catch (const std::exception &e) {
        obs::log(obs::LogLevel::Error,
                 "TraceFileWriter: %s — trace file %s may be "
                 "incomplete",
                 e.what(), path_.c_str());
    }
}

void
TraceFileWriter::putByte(uint8_t b)
{
    if (bufUsed_ == BUF_SIZE)
        flushBuffer();
    buf_[bufUsed_++] = b;
}

void
TraceFileWriter::putVarint(uint64_t v)
{
    while (v >= 0x80) {
        putByte(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    putByte(static_cast<uint8_t>(v));
}

void
TraceFileWriter::flushBuffer()
{
    if (bufUsed_ &&
        std::fwrite(buf_.get(), 1, bufUsed_, file_) != bufUsed_) {
        throw std::runtime_error("TraceFileWriter: write failed");
    }
    bufUsed_ = 0;
}

void
TraceFileWriter::write(const TraceRecord &rec)
{
    const auto k = static_cast<size_t>(rec.kind);
    uint8_t tag = static_cast<uint8_t>(rec.kind) & TAG_KIND_MASK;
    const bool asid_changed = first_ || rec.asid != lastAsid_;
    if (asid_changed)
        tag |= TAG_ASID;
    putByte(tag);
    if (asid_changed)
        putVarint(rec.asid);

    // Modular (unsigned) difference: addresses far apart would
    // overflow a signed subtraction. Same bits on the wire.
    const int64_t delta = static_cast<int64_t>(
        first_ ? rec.vaddr : rec.vaddr - lastVaddr_[k]);
    putVarint(zigzagEncode(delta));

    lastVaddr_[k] = rec.vaddr;
    lastAsid_ = rec.asid;
    first_ = false;
    ++count_;
}

void
TraceFileWriter::close()
{
    if (!file_)
        return;
    std::FILE *f = file_;
    try {
        flushBuffer();
        // Patch the record count into the header.
        if (std::fseek(f, 8, SEEK_SET) != 0)
            throw std::runtime_error("TraceFileWriter: seek failed");
        if (std::fwrite(&count_, sizeof(count_), 1, f) != 1)
            throw std::runtime_error(
                "TraceFileWriter: count write failed");
    } catch (...) {
        // The file is unusable; release the handle before
        // propagating so a later close()/destructor doesn't retry on
        // a dangling stream.
        file_ = nullptr;
        std::fclose(f);
        throw;
    }
    // fclose flushes stdio's own buffer; on a full disk that final
    // write can fail after every fwrite "succeeded", silently losing
    // the tail of the trace unless the return code is checked.
    file_ = nullptr;
    if (std::fclose(f) != 0)
        throw std::runtime_error("TraceFileWriter: fclose failed for " +
                                 path_);
}

TraceFileReader::TraceFileReader(const std::string &path)
    : path_(path), buf_(new uint8_t[BUF_SIZE])
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        throw std::runtime_error("TraceFileReader: cannot open " + path);
    readHeader();
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

void
TraceFileReader::readHeader()
{
    uint8_t header[16];
    if (std::fread(header, 1, sizeof(header), file_) != sizeof(header))
        throw std::runtime_error("TraceFileReader: truncated header in " +
                                 path_);
    if (std::memcmp(header, MAGIC, 4) != 0)
        throw std::runtime_error("TraceFileReader: bad magic in " + path_);
    uint16_t version;
    std::memcpy(&version, header + 4, 2);
    if (version != VERSION)
        throw std::runtime_error("TraceFileReader: unsupported version");
    std::memcpy(&total_, header + 8, 8);
}

bool
TraceFileReader::getByte(uint8_t &b)
{
    if (bufPos_ == bufUsed_) {
        bufUsed_ = std::fread(buf_.get(), 1, BUF_SIZE, file_);
        bufPos_ = 0;
        if (bufUsed_ == 0)
            return false;
    }
    b = buf_[bufPos_++];
    return true;
}

bool
TraceFileReader::getVarint(uint64_t &v)
{
    v = 0;
    int shift = 0;
    uint8_t b;
    do {
        if (!getByte(b))
            return false;
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        shift += 7;
    } while (b & 0x80);
    return true;
}

bool
TraceFileReader::next(TraceRecord &rec)
{
    if (produced_ >= total_)
        return false;
    uint8_t tag;
    if (!getByte(tag))
        throw std::runtime_error("TraceFileReader: truncated record");
    const auto kind = static_cast<RefKind>(tag & TAG_KIND_MASK);
    if ((tag & TAG_KIND_MASK) > 2)
        throw std::runtime_error("TraceFileReader: bad record kind");
    if (tag & TAG_ASID) {
        uint64_t asid;
        if (!getVarint(asid))
            throw std::runtime_error("TraceFileReader: truncated asid");
        lastAsid_ = static_cast<Asid>(asid);
    }
    uint64_t zz;
    if (!getVarint(zz))
        throw std::runtime_error("TraceFileReader: truncated delta");

    const auto k = static_cast<size_t>(kind);
    const int64_t delta = zigzagDecode(zz);
    // Modular addition, the inverse of the writer's difference.
    const uint64_t vaddr = first_
        ? static_cast<uint64_t>(delta)
        : lastVaddr_[k] + static_cast<uint64_t>(delta);
    lastVaddr_[k] = vaddr;
    first_ = false;
    ++produced_;

    rec.vaddr = vaddr;
    rec.asid = lastAsid_;
    rec.kind = kind;
    return true;
}

void
TraceFileReader::reset()
{
    if (std::fseek(file_, 0, SEEK_SET) != 0)
        throw std::runtime_error("TraceFileReader: seek failed");
    readHeader();
    produced_ = 0;
    bufUsed_ = bufPos_ = 0;
    first_ = true;
    lastAsid_ = KERNEL_ASID;
    lastVaddr_[0] = lastVaddr_[1] = lastVaddr_[2] = 0;
}

} // namespace ibs
