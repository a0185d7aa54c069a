//===- support/StableStore.h - Durable CRC-framed state store --*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small durable-storage layer shared by the simulator's on-disk
/// checkpoints and the fleet runner's resume journal (DESIGN.md §13).
///
/// Everything on disk is a sequence of *frames*:
///
///   [u32 magic][u32 version][u32 type][u64 payload-len][u32 crc32][payload]
///
/// all fields little-endian, crc32 covering the payload bytes only. A
/// reader accepts the longest valid prefix of a file and reports whether
/// a torn or corrupt tail was discarded — the write paths guarantee that
/// a crash at any instant leaves at most one damaged trailing frame:
///
///  - atomicWriteFile: write temp file in the same directory, fsync it,
///    rename() over the target, fsync the directory. Readers never see a
///    partial file, only the old or the new content.
///  - JournalWriter: O_APPEND writes of whole frames, fdatasync after
///    each. A crash mid-append leaves a torn final frame which the
///    reader drops (and resume truncates before appending again).
///
/// Payloads are built with ByteWriter / parsed with ByteReader; doubles
/// travel as their IEEE-754 bit patterns so round-trips are bit-exact.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SUPPORT_STABLESTORE_H
#define DMCC_SUPPORT_STABLESTORE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dmcc {
namespace stable {

/// Bumped whenever the frame header layout changes. Payload layouts are
/// versioned separately by their owners (checkpoint image, journal).
constexpr uint32_t FormatVersion = 1;

/// "DMSF" — dmcc stable frame.
constexpr uint32_t FrameMagic = 0x444D5346u;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of \p N bytes at \p Data.
/// crc32("123456789") == 0xCBF43926.
uint32_t crc32(const void *Data, size_t N);

//===----------------------------------------------------------------------===//
// Payload encoding
//===----------------------------------------------------------------------===//

/// Appends little-endian primitives to a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) { put(V, 4); }
  void u64(uint64_t V) { put(V, 8); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  /// Doubles are serialized as their raw bit pattern: the round-trip is
  /// bit-exact, which the durable differential tests rely on.
  void f64(double V) {
    uint64_t B;
    static_assert(sizeof(B) == sizeof(V));
    std::memcpy(&B, &V, sizeof(B));
    u64(B);
  }
  void str(const std::string &S) {
    u64(S.size());
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  /// Appends the low \p Bytes bytes of \p V, least significant first.
  /// One resize per value, not one push_back per byte: checkpoint
  /// images are mostly 8-byte fields, and per-byte growth checks made
  /// encoding them measurably slower.
  void put(uint64_t V, size_t Bytes) {
    size_t At = Buf.size();
    Buf.resize(At + Bytes);
    for (size_t I = 0; I != Bytes; ++I)
      Buf[At + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  std::vector<uint8_t> Buf;
};

/// Consumes little-endian primitives from a byte buffer. Reads past the
/// end set a sticky failure flag and return zeros instead of invoking
/// UB, so parsers can decode a whole record and check ok() once.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t N) : Data(Data), N(N) {}
  explicit ByteReader(const std::vector<uint8_t> &V)
      : Data(V.data()), N(V.size()) {}

  uint8_t u8() {
    if (!need(1))
      return 0;
    return Data[Pos++];
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  double f64() {
    uint64_t B = u64();
    double V;
    std::memcpy(&V, &B, sizeof(V));
    return V;
  }
  std::string str() {
    uint64_t Len = u64();
    if (Len > N - Pos || !need(static_cast<size_t>(Len)))
      return (Failed = true, std::string());
    std::string S(reinterpret_cast<const char *>(Data + Pos),
                  static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return S;
  }

  /// True iff every read so far was in bounds.
  bool ok() const { return !Failed; }
  /// True iff the whole buffer was consumed exactly.
  bool atEnd() const { return !Failed && Pos == N; }
  size_t remaining() const { return Failed ? 0 : N - Pos; }

private:
  bool need(size_t K) {
    if (Failed || N - Pos < K) {
      Failed = true;
      return false;
    }
    return true;
  }

  const uint8_t *Data;
  size_t N;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

/// One decoded frame: an application-defined type tag plus its payload.
struct Frame {
  uint32_t Type = 0;
  std::vector<uint8_t> Payload;
};

/// Encodes one frame (header + payload) ready to be written to disk.
std::vector<uint8_t> encodeFrame(uint32_t Type,
                                 const std::vector<uint8_t> &Payload);

/// Result of scanning a file for frames. The scan accepts the longest
/// prefix of structurally valid, CRC-clean frames and stops at the first
/// damage; \c ValidBytes is the byte length of that prefix (the safe
/// truncation point before appending).
struct ReadFramesResult {
  std::vector<Frame> Frames;
  /// True iff trailing bytes after the valid prefix were discarded
  /// (torn frame, bad magic/version, CRC mismatch, stray garbage).
  bool TornTail = false;
  /// Length in bytes of the valid frame prefix.
  uint64_t ValidBytes = 0;
  /// Non-empty iff the file could not be opened/read at all. A missing
  /// file is reported here (callers treat it as "no state yet").
  std::string Error;

  bool intact() const { return Error.empty() && !TornTail; }
};

/// Reads every intact frame from \p Path (see ReadFramesResult).
ReadFramesResult readFrames(const std::string &Path);

//===----------------------------------------------------------------------===//
// Durable writes
//===----------------------------------------------------------------------===//

/// Atomically replaces \p Path with \p N bytes at \p Data: temp file in
/// the same directory + fsync + rename + directory fsync. On failure
/// returns false with a description in \p Err and leaves any existing
/// \p Path untouched.
bool atomicWriteFile(const std::string &Path, const void *Data, size_t N,
                     std::string &Err);

inline bool atomicWriteFile(const std::string &Path,
                            const std::vector<uint8_t> &Data,
                            std::string &Err) {
  return atomicWriteFile(Path, Data.data(), Data.size(), Err);
}
bool atomicWriteFile(const std::string &Path, const std::string &Data,
                     std::string &Err);

/// Creates directory \p Dir if it does not exist (one level, like
/// mkdir). Returns false with \p Err on failure; an existing directory
/// is success.
bool ensureDir(const std::string &Dir, std::string &Err);

/// Lists regular files in \p Dir whose names start with \p Prefix and
/// end with \p Suffix, sorted ascending by name. Returns an empty list
/// for a missing directory.
std::vector<std::string> listFiles(const std::string &Dir,
                                   const std::string &Prefix,
                                   const std::string &Suffix);

/// Append-only frame journal. Each append writes one whole frame with a
/// single write(2) followed by fdatasync, so the on-disk file is always
/// a valid frame sequence plus at most one torn tail.
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Opens (creating if needed) \p Path and truncates it to
  /// \p TruncateTo bytes first — pass ReadFramesResult::ValidBytes when
  /// resuming to cut a torn tail, or 0 to start a fresh journal.
  bool open(const std::string &Path, uint64_t TruncateTo, std::string &Err);

  /// Appends one frame and flushes it to stable storage.
  bool append(uint32_t Type, const std::vector<uint8_t> &Payload,
              std::string &Err);

  bool isOpen() const { return Fd >= 0; }
  void close();

private:
  int Fd = -1;
  std::string Path;
};

} // namespace stable
} // namespace dmcc

#endif // DMCC_SUPPORT_STABLESTORE_H
