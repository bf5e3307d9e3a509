#ifndef MIRA_OBS_SEQ_RING_H_
#define MIRA_OBS_SEQ_RING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace mira::obs::internal {

/// Fixed-capacity ring of trivially copyable values stored as atomic words
/// under per-slot seqlocks: the storage of the QueryLog and of every
/// WindowedMetrics series. Ticket t lives in slot t & mask. Writers never
/// block and readers never block a writer: a reader copies the words and
/// validates the generation, discarding torn or recycled slots. TSan-clean by
/// construction: every byte moves through an atomic.
template <typename T>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "values are serialized into the ring word-by-word");

 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SeqRing(size_t capacity) {
    size_t rounded = 2;
    while (rounded < capacity) rounded *= 2;
    capacity_ = rounded;
    mask_ = rounded - 1;
    slots_ = std::make_unique<Slot[]>(rounded);
  }

  /// Publishes `value` as ticket `ticket`; any number of writers may publish
  /// distinct tickets at once. A slot's generation runs 2*ticket+1 while its
  /// writer stores and 2*ticket+2 once complete (0: never written); one CAS
  /// claims it. A slot still odd, or already carrying a newer generation,
  /// means a writer stalled for a full ring lap: the value is dropped (false
  /// returned) instead of blocking or overwriting the newer one.
  bool Publish(uint64_t ticket, const T& value) {
    Slot& slot = slots_[ticket & mask_];
    const uint64_t claim = 2 * ticket + 1;
    uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    for (;;) {
      if ((seq & 1) != 0 || seq > claim) return false;
      if (slot.seq.compare_exchange_weak(seq, claim,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        break;
      }
    }
    uint64_t words[Slot::kWords] = {};
    std::memcpy(words, &value, sizeof(value));
    // Release: a reader whose acquire load sees one of these words also
    // sees the odd claim above, so its second generation check fails.
    for (size_t w = 0; w < Slot::kWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_release);
    }
    slot.seq.store(claim + 1, std::memory_order_release);
    return true;
  }

  /// Copies the value published as `ticket` into *out. False when the slot
  /// is mid-write, was recycled by a newer lap, or never held that ticket.
  bool Read(uint64_t ticket, T* out) const {
    const Slot& slot = slots_[ticket & mask_];
    const uint64_t want = 2 * ticket + 2;
    if (slot.seq.load(std::memory_order_acquire) != want) return false;
    uint64_t words[Slot::kWords];
    // Acquire loads order the generation check below after the copy (no
    // standalone fence, which TSan does not model).
    for (size_t w = 0; w < Slot::kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_acquire);
    }
    // Seqlock validation: if the generation moved while we copied, the words
    // may mix two values — discard them.
    if (slot.seq.load(std::memory_order_relaxed) != want) return false;
    std::memcpy(out, words, sizeof(*out));
    return true;
  }

  /// Marks every slot never-written. Must not run concurrently with Publish.
  void Clear() {
    for (size_t s = 0; s < capacity_; ++s) {
      slots_[s].seq.store(0, std::memory_order_relaxed);
    }
  }

  size_t capacity() const { return capacity_; }

 private:
  friend class SeqRingTestPeer;  // stages a slot mid-write

  struct Slot {
    static constexpr size_t kWords = (sizeof(T) + 7) / 8;
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  size_t capacity_ = 0;  ///< Power of two.
  size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace mira::obs::internal

#endif  // MIRA_OBS_SEQ_RING_H_
