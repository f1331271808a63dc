#pragma once
// 128-bit state fingerprints for memoization.
//
// The linearizability checkers memoize search nodes on (placed-set, object
// state).  Building the state's canonical() string per node makes the search
// allocation-bound, so states instead stream their structure into an
// FpHasher and the checkers key on the resulting 128-bit Fingerprint.
// canonical() survives as the display form and as the collision verifier:
// the memo keeps a clone of the first dead state under each fingerprint key
// and, when a later node hits that key, only prunes if the two states'
// canonical() forms match, so a fingerprint collision costs re-exploration,
// never a wrong verdict.
//
// Determinism contract (enforced by detlint): fingerprints are a pure
// function of the abstract state.  Mix only structural data -- tags, sizes,
// integers, string bytes -- never addresses, iteration order of unordered
// containers, or anything seed- or run-dependent.  Two lanes with distinct
// seeds and a splitmix64 finalizer keep the collision probability for the
// small states in this library negligible, and the canonical fallback makes
// even a collision harmless.

#include <cstdint>
#include <cstring>
#include <string_view>

namespace lintime::adt {

/// A 128-bit structural hash of an ObjectState.  Equality of fingerprints is
/// a (very high confidence) proxy for canonical() equality; the reverse
/// direction is exact by construction.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) { return !(a == b); }
};

/// Streaming two-lane mixer producing a Fingerprint.  Allocation-free: state
/// implementations call mix()/mix_bytes() as they walk their structure.
class FpHasher {
 public:
  FpHasher() = default;

  void mix(std::uint64_t v) {
    a_ = split(a_ ^ (v + kLaneA));
    b_ = split(b_ ^ (v + kLaneB));
  }

  void mix_int(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }

  /// Length-framed so that ("ab","c") and ("a","bc") stream differently.
  void mix_bytes(std::string_view s) {
    mix(s.size());
    std::uint64_t word = 0;
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::memcpy(&word, s.data() + i, 8);
      mix(word);
    }
    if (i < s.size()) {
      word = 0;
      std::memcpy(&word, s.data() + i, s.size() - i);
      mix(word);
    }
  }

  [[nodiscard]] Fingerprint finish() const { return {split(a_), split(b_)}; }

 private:
  // splitmix64 finalizer (public-domain constants); applied per mixed word
  // and once more at finish so trailing zero words still perturb both lanes.
  static constexpr std::uint64_t split(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
  }

  static constexpr std::uint64_t kLaneA = 0x243f6a8885a308d3ULL;  // pi
  static constexpr std::uint64_t kLaneB = 0x13198a2e03707344ULL;  // pi, next

  std::uint64_t a_ = 0x6a09e667f3bcc908ULL;  // sqrt(2)
  std::uint64_t b_ = 0xbb67ae8584caa73bULL;  // sqrt(3)
};

}  // namespace lintime::adt
