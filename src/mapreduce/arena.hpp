// KVArena: the contiguous map-output buffer, modeled on Hadoop's
// MapOutputBuffer (io.sort.mb). Every emitted pair is appended once —
// key bytes then value bytes — and addressed from then on by a
// 16-byte KVRef. Sorting a run sorts the KVRef index; spilling seals
// the arena; merging moves winning payloads into the output arena
// with a single bounded append. No per-record heap allocations occur
// anywhere on the intermediate path.
//
// Lifetime rule: append() may grow the underlying buffer, so
// string_views obtained from an arena are invalidated by a later
// append *to the same arena*. The pipeline never needs that: combine
// and reduce read from sealed input arenas while emitting into a
// distinct output arena.
#pragma once

#include <cstring>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "mapreduce/kv.hpp"
#include "util/error.hpp"

namespace bvl::mr {

class KVArena {
 public:
  KVArena() = default;
  explicit KVArena(std::size_t reserve_bytes) { reserve(reserve_bytes); }

  // The buffer is a raw allocation rather than a std::vector: the
  // per-emit append must stay a capacity check plus memcpy, with no
  // out-of-line resize machinery and no zero-fill of bytes that are
  // about to be overwritten. Moves must zero the source's size so a
  // moved-from arena reads as empty.
  KVArena(KVArena&& o) noexcept : buf_(std::move(o.buf_)), size_(o.size_), cap_(o.cap_) {
    o.size_ = 0;
    o.cap_ = 0;
  }
  KVArena& operator=(KVArena&& o) noexcept {
    buf_ = std::move(o.buf_);
    size_ = o.size_;
    cap_ = o.cap_;
    o.size_ = 0;
    o.cap_ = 0;
    return *this;
  }
  KVArena(const KVArena&) = delete;
  KVArena& operator=(const KVArena&) = delete;

  /// Appends one record's payload; returns its index entry.
  KVRef append(std::string_view key, std::string_view value) {
    require((key.size() | value.size()) <= 0xFFFF,
            "KVArena::append: key or value exceeds the 64 KiB record limit");
    KVRef ref;
    ref.key_off = static_cast<std::uint32_t>(size_);
    ref.key_len = static_cast<std::uint16_t>(key.size());
    ref.val_len = static_cast<std::uint16_t>(value.size());
    ref.prefix = KVRef::prefix_of(key);
    char* dst = grow(key.size() + value.size());
    if (!key.empty()) std::memcpy(dst, key.data(), key.size());
    if (!value.empty()) std::memcpy(dst + key.size(), value.data(), value.size());
    return ref;
  }

  /// Appends a record resident in `src` (merge moving a winner into
  /// the output arena): one bounded copy of the raw payload bytes.
  KVRef append(const KVArena& src, const KVRef& ref) {
    KVRef out = ref;
    out.key_off = static_cast<std::uint32_t>(size_);
    std::size_t n = static_cast<std::size_t>(ref.key_len) + ref.val_len;
    char* dst = grow(n);
    if (n != 0) std::memcpy(dst, src.buf_.get() + ref.key_off, n);
    return out;
  }

  std::string_view key(const KVRef& r) const {
    return {buf_.get() + r.key_off, r.key_len};
  }
  std::string_view value(const KVRef& r) const {
    return {buf_.get() + r.val_off(), r.val_len};
  }

  /// Payload bytes stored (keys + values, no framing).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  /// Clears the contents but keeps the allocation, so a recycled
  /// arena refills without touching the allocator.
  void reset() { size_ = 0; }

  void reserve(std::size_t bytes) {
    if (bytes > cap_) regrow(bytes);
  }

 private:
  /// Extends the buffer by `n` bytes and returns the write position.
  char* grow(std::size_t n) {
    if (size_ + n > cap_) regrow(size_ + n);
    char* p = buf_.get() + size_;
    size_ += n;
    return p;
  }

  void regrow(std::size_t need) {
    // KVRef packs offsets in 32 bits, so one arena caps at 4 GiB of
    // payload — far above any task-local buffer this simulator sizes.
    require(need <= 0xFFFFFFFFull, "KVArena: payload exceeds the 4 GiB arena limit");
    std::size_t cap = cap_ < 32 ? 64 : cap_ * 2;
    if (cap < need) cap = need;
    if (cap > 0xFFFFFFFFull) cap = 0xFFFFFFFFull;
    std::unique_ptr<char[]> next(new char[cap]);
    if (size_ != 0) std::memcpy(next.get(), buf_.get(), size_);
    buf_ = std::move(next);
    cap_ = cap;
  }

  std::unique_ptr<char[]> buf_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

/// Key order over index entries: the cached prefixes decide the
/// common case, keys of at most eight bytes are decided entirely by
/// (prefix, len) — a prefix tie then means the shorter key is a
/// strict prefix of the longer — and only longer keys with a shared
/// 8-byte stem fall back to comparing arena memory.
inline bool ref_key_less(const KVArena& a_data, const KVRef& a, const KVArena& b_data,
                         const KVRef& b) {
  if (a.prefix != b.prefix) return a.prefix < b.prefix;
  if (a.key_len <= 8 && b.key_len <= 8) return a.key_len < b.key_len;
  return a_data.key(a) < b_data.key(b);
}

inline bool ref_key_eq(const KVArena& a_data, const KVRef& a, const KVArena& b_data,
                       const KVRef& b) {
  if (a.prefix != b.prefix || a.key_len != b.key_len) return false;
  if (a.key_len <= 8) return true;
  return a_data.key(a) == b_data.key(b);
}

/// A sealed run: an owning arena plus its (typically key-sorted)
/// index. This is the unit the spill/merge path and the map-output
/// hand-off move around — moving an ArenaRun moves a buffer pointer,
/// never record payloads.
struct ArenaRun {
  KVArena data;
  std::vector<KVRef> refs;

  bool empty() const { return refs.empty(); }
  std::size_t size() const { return refs.size(); }
  std::string_view key(std::size_t i) const { return data.key(refs[i]); }
  std::string_view value(std::size_t i) const { return data.value(refs[i]); }
};

/// A non-owning sorted slice of some ArenaRun: the shuffle routes
/// each map output's refs into per-partition RunViews without
/// touching payload bytes. The backing arena (the map task's output)
/// must outlive the view — the engine keeps map outputs alive until
/// the reduce phase completes.
struct RunView {
  const KVArena* data = nullptr;
  std::vector<KVRef> refs;

  bool empty() const { return refs.empty(); }
  std::size_t size() const { return refs.size(); }
  std::string_view key(std::size_t i) const { return data->key(refs[i]); }
  std::string_view value(std::size_t i) const { return data->value(refs[i]); }
};

/// Whole-run view, used by the reduce path's group iterator tests and
/// single-segment shuffles.
inline RunView view_of(const ArenaRun& run) { return {&run.data, run.refs}; }

}  // namespace bvl::mr
