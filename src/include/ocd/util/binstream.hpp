// Compact binary serialization for cross-shard messages and state
// shipping (the husky engine's BinStream idiom: one append-only byte
// buffer, typed put/get pairs, no schema negotiation).
//
// The vertex-sharded runtime moves two kinds of payload through this
// layer — per-step delivery batches and checkpoints (possession
// snapshots plus run state; a shard's finish fragment is one too) — so
// the encoding favors the shapes those produce:
//   * varint (LEB128) for every count and id: delivery batches are
//     dominated by small arc ids and short token lists;
//   * TokenSets carry a one-byte encoding tag chosen per set — raw
//     words when dense, delta-coded sorted ids when sparse — so a
//     capacity-bounded delivery over a 4096-token universe costs a few
//     bytes, not half a kilobyte;
//   * fixed-width little-endian for the word payloads, independent of
//     host endianness.
//
// Every read names the field being decoded; a truncated or corrupted
// stream throws ocd::Error whose message carries that field name, so a
// transport bug reports "truncated reading 'delivery.tokens'" instead
// of a silent misparse.  Reads never trust the buffer: counts are
// bounds-checked before allocation, token ids must be strictly
// increasing and inside the declared universe, and raw bitset words
// must keep their tail bits clear.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "ocd/core/schedule.hpp"
#include "ocd/util/error.hpp"
#include "ocd/util/token_matrix.hpp"
#include "ocd/util/token_set.hpp"

namespace ocd::util {

class BinStream {
 public:
  BinStream() = default;
  /// Adopts `bytes` for reading (read position starts at 0).
  explicit BinStream(std::string bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
  /// Moves the buffer out (e.g. to hand it to a transport frame).
  [[nodiscard]] std::string take() && { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] std::size_t read_pos() const noexcept { return pos_; }
  /// True when every byte has been consumed — message decoders check
  /// this to reject trailing garbage.
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }
  void clear() {
    bytes_.clear();
    pos_ = 0;
  }

  // ---- writers -------------------------------------------------------
  void put_u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// LEB128; the encoding for every count and id.
  void put_varint(std::uint64_t v);
  /// Signed values that are almost always small and non-negative
  /// (capacities, step numbers): zig-zag + LEB128.
  void put_varint_signed(std::int64_t v);
  void put_bytes(const void* data, std::size_t n);
  void put_string(std::string_view s);

  // ---- readers (throw ocd::Error naming `field` on failure) ----------
  std::uint8_t get_u8(const char* field);
  std::uint32_t get_u32(const char* field);
  std::uint64_t get_u64(const char* field);
  std::int64_t get_i64(const char* field) {
    return static_cast<std::int64_t>(get_u64(field));
  }
  double get_f64(const char* field);
  bool get_bool(const char* field);
  std::uint64_t get_varint(const char* field);
  std::int64_t get_varint_signed(const char* field);
  std::string get_string(const char* field);

  /// Decoder-side validation helper: throws ocd::Error naming `field`
  /// when `cond` is false.
  void require(bool cond, const char* field, const char* why) const;

 private:
  [[noreturn]] void fail_truncated(const char* field,
                                   std::size_t need) const;
  const char* read_span(const char* field, std::size_t n);

  std::string bytes_;
  std::size_t pos_ = 0;
};

// ---- TokenSet --------------------------------------------------------
/// Encodes universe + contents with a per-set density tag: raw words
/// when dense, strictly-increasing delta-coded ids when sparse.
void put_token_set(BinStream& stream, TokenSetView tokens);
/// Decodes a TokenSet written by put_token_set; validates the tag, the
/// id ordering/bounds, and (raw encoding) the tail-bit invariant.
TokenSet get_token_set(BinStream& stream, const char* field);
/// As get_token_set, but decodes into `out` (cleared first); the
/// declared universe must match out's.  The allocation-free path for
/// fixed-universe payloads (delivery batches into matrix rows).
void get_token_set_into(BinStream& stream, const char* field,
                        MutableTokenSetView out);

// ---- TokenMatrix (possession snapshots) ------------------------------
void put_token_matrix(BinStream& stream, const TokenMatrix& matrix);
TokenMatrix get_token_matrix(BinStream& stream, const char* field);

// ---- schedule --------------------------------------------------------
void put_schedule(BinStream& stream, const core::Schedule& schedule);
core::Schedule get_schedule(BinStream& stream, const char* field);

}  // namespace ocd::util
