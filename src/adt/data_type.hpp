#pragma once
// DataType / ObjectState: executable representation of the paper's legal
// sequence sets L(T) (Section 2.1).
//
// The paper specifies a data type T by its set L(T) of legal sequences of
// operation instances, constrained by Prefix Closure, Completeness and
// Determinism.  Those three constraints are exactly the statement that L(T)
// is generated by a deterministic sequential state machine: from any
// reachable state, every invocation (op, arg) has exactly one legal return
// value, computed by `ObjectState::apply`.  We therefore represent each type
// by such a machine:
//
//   * Prefix Closure  -- holds by construction (run the machine on a prefix).
//   * Completeness    -- apply() is total: it returns some value for every
//                        invocation (possibly an "error"/nil value, e.g.
//                        dequeue on an empty queue returns nil).
//   * Determinism     -- apply() is a function of (state, op, arg).
//
// Legality of a sequence rho = the machine, run from the initial state,
// reproduces every instance's return value.

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adt/fingerprint.hpp"
#include "adt/op.hpp"
#include "adt/op_table.hpp"
#include "adt/value.hpp"

namespace lintime::adt {

/// Which family of specialized log-linear linearizability monitors
/// (src/lin/fast/) a type's histories may dispatch to.  kNone means "no
/// fast path exists for this type": every history goes to the general
/// Wing-Gong checker.  A non-kNone family is only a *candidate*: the
/// ambiguity classifier still inspects each concrete history (supported
/// operation subset, distinct values, per-process interval gaps) before the
/// fast path is taken.
enum class MonitorFamily {
  kNone,
  kRegister,       ///< read/write with distinct written values
  kQueue,          ///< enqueue/dequeue with distinct values
  kStack,          ///< push/pop with distinct values
  kSet,            ///< add/contains with at-most-once adds
  kPriorityQueue,  ///< insert/extract_min with distinct values
};

[[nodiscard]] constexpr const char* to_string(MonitorFamily f) {
  switch (f) {
    case MonitorFamily::kNone: return "none";
    case MonitorFamily::kRegister: return "register";
    case MonitorFamily::kQueue: return "queue";
    case MonitorFamily::kStack: return "stack";
    case MonitorFamily::kSet: return "set";
    case MonitorFamily::kPriorityQueue: return "pqueue";
  }
  return "?";
}

class Trail;  // adt/trail.hpp

/// Mutable sequential state of one object.  Implementations are value-like:
/// cloneable and canonically printable (the canonical form is the display
/// encoding and the exact equivalence check; memoization keys on the cheaper
/// fingerprint() and falls back to canonical() on fingerprint collision).
class ObjectState {
 public:
  virtual ~ObjectState() = default;

  /// Executes (op, arg) on this state, mutating it, and returns the unique
  /// legal return value.  Total: never fails for a known op (unknown op
  /// names throw std::invalid_argument -- that is a caller bug, not a data
  /// type behaviour).
  virtual Value apply(const std::string& op, const Value& arg) = 0;

  /// Interned-dispatch overload used by the hot paths (checkers, replicas).
  /// `id` must come from the owning DataType's table.  Shipped states
  /// override this with a direct switch; the default resolves the name
  /// through the bound table and calls the string overload, so custom
  /// string-only states (e.g. downstream DataType implementations) work
  /// unchanged as long as the state came from DataType::initial_state().
  virtual Value apply(OpId id, const Value& arg);

  [[nodiscard]] virtual std::unique_ptr<ObjectState> clone() const = 0;

  /// Byte footprint / alignment of the dynamic type, or 0 when unknown
  /// (string-only custom states).  Non-zero means clone_into() is available;
  /// bulk owners (the sharded store's per-key replicas) use the pair to
  /// place copies in slabs instead of one heap block per state.  Implemented
  /// once by StateBase.
  [[nodiscard]] virtual std::size_t self_size() const { return 0; }
  [[nodiscard]] virtual std::size_t self_align() const { return 0; }

  /// Placement-copy of this state into `mem` (self_size() bytes aligned to
  /// self_align()); returns the constructed copy, destroyed by an explicit
  /// ~ObjectState() call.  Default throws std::logic_error (only valid when
  /// self_size() > 0).
  virtual ObjectState* clone_into(void* mem) const;

  /// Canonical textual encoding of the state; equal encodings imply
  /// behaviourally equivalent states.
  [[nodiscard]] virtual std::string canonical() const = 0;

  /// Streams the state's structure into `h`.  Must mix exactly the
  /// information canonical() prints (so fingerprint equality coincides with
  /// canonical equality up to hash collisions) and nothing run-dependent --
  /// no addresses, no unordered-container iteration order.  The default
  /// mixes the canonical() bytes, which is always correct but allocates.
  virtual void fingerprint_into(FpHasher& h) const;

  /// 128-bit structural hash of this state; see adt/fingerprint.hpp.
  [[nodiscard]] Fingerprint fingerprint() const {
    FpHasher h;
    fingerprint_into(h);
    return h.finish();
  }

  /// apply(id, arg), recording on `trail` what undo() needs to revert it.
  /// The linearizability search probes candidates this way on one live
  /// state.  StateBase supplies a snapshot default; states with an O(1)
  /// inverse override it.
  virtual Value apply_trailed(OpId id, const Value& arg, Trail& trail) = 0;

  /// Reverts the most recent apply_trailed() on `trail` that has not been
  /// undone yet, which must have been applied to this state, and pops its
  /// entries.  Afterwards canonical() and fingerprint() equal their values
  /// before that apply.
  virtual void undo(Trail& trail) = 0;

  /// Binds the OpTable used by the default OpId apply().  Set automatically
  /// by DataType::initial_state() and preserved by clone()/copy.
  void bind_table(const OpTable* table) { table_ = table; }
  [[nodiscard]] const OpTable* bound_table() const { return table_; }

 private:
  const OpTable* table_ = nullptr;
};

/// Static description of a data type: its operations and a factory for its
/// initial state.  Instances are immutable and shareable (the lazy op-table
/// cache is internally synchronized, so concurrent campaign jobs may share
/// one instance).
class DataType {
 public:
  DataType() = default;
  virtual ~DataType() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual const std::vector<OpSpec>& ops() const = 0;
  [[nodiscard]] virtual std::unique_ptr<ObjectState> make_initial_state() const = 0;

  /// Fast-path dispatch hook: the monitor family whose unambiguity
  /// precondition this type's histories can satisfy (lin/fast/classifier).
  /// Default: none, i.e. always use the general checker.  Overriding types
  /// assert that, *restricted to the family's supported operations*, their
  /// sequential semantics match the family's reference semantics exactly
  /// (e.g. RmwRegisterType restricted to read/write is a register).
  [[nodiscard]] virtual MonitorFamily monitor_family() const { return MonitorFamily::kNone; }

  /// make_initial_state() with this type's OpTable bound, so the state's
  /// OpId apply() works even for string-only implementations.  Prefer this
  /// over make_initial_state() everywhere inside the library.
  [[nodiscard]] std::unique_ptr<ObjectState> initial_state() const;

  /// A small set of representative arguments for `op`, used by the empirical
  /// classifier and property tests to enumerate instances.  Returns {nil}
  /// for argument-less operations.
  [[nodiscard]] virtual std::vector<Value> sample_args(const std::string& op) const;

  /// The interning table mapping operation names to OpIds (== indices into
  /// ops()).  The default builds it lazily from ops(); shipped types
  /// override it with their file-local table to skip the cache entirely.
  [[nodiscard]] virtual const OpTable& table() const;

  /// Resolves a name to its interned id; throws std::invalid_argument
  /// naming the unknown op.
  [[nodiscard]] OpId op_id(const std::string& op) const;

  /// Non-throwing resolution: returns the invalid OpId when unknown.
  [[nodiscard]] OpId find_op(std::string_view op) const { return table().find(op); }

  [[nodiscard]] const OpSpec& spec(OpId id) const { return table().spec(id); }

  /// Looks up the spec for `op`; throws std::invalid_argument if unknown.
  /// Backed by the OpTable index (no linear scan).
  [[nodiscard]] const OpSpec& spec(const std::string& op) const { return spec(op_id(op)); }

  [[nodiscard]] OpCategory category(const std::string& op) const { return spec(op).category; }
  [[nodiscard]] OpCategory category(OpId id) const { return spec(id).category; }

  /// Names of all operations in the declared category.
  [[nodiscard]] std::vector<std::string> ops_in_category(OpCategory c) const;

 protected:
  // The lazy table cache is per-instance scratch: copies start cold.
  // (std::once_flag is non-copyable, so these cannot be defaulted.)
  DataType(const DataType& /*other*/) {}
  DataType& operator=(const DataType& /*other*/) { return *this; }

 private:
  mutable std::once_flag table_once_;
  mutable std::unique_ptr<OpTable> table_cache_;
};

// ---------------------------------------------------------------------------
// Sequence-level helpers (the vocabulary of Section 2.1 made executable).
// ---------------------------------------------------------------------------

/// Runs `seq` from the initial state of `type`.  Returns the reached state if
/// every instance's recorded return value matches the machine (i.e. `seq` is
/// legal), or nullptr otherwise.
[[nodiscard]] std::unique_ptr<ObjectState> run_sequence(const DataType& type, const Sequence& seq);

/// True iff `seq` is a legal sequence of `type` (member of L(T)).
[[nodiscard]] bool is_legal(const DataType& type, const Sequence& seq);

/// The unique legal return value of (op, arg) after legal sequence `prefix`.
/// Precondition: `prefix` is legal.
[[nodiscard]] Value legal_return(const DataType& type, const Sequence& prefix,
                                 const std::string& op, const Value& arg);

/// Completes an invocation into its unique legal instance after `prefix`.
[[nodiscard]] Instance complete(const DataType& type, const Sequence& prefix,
                                const std::string& op, const Value& arg);

/// Bounded behavioural-equivalence check for the paper's sequence
/// equivalence relation (rho1 == rho2 iff every continuation is legal after
/// one exactly when legal after the other).  We decide the conservative
/// executable version: states reached by rho1 and rho2 have equal canonical
/// encodings.  For every type in this library canonical equality coincides
/// with behavioural equivalence (each canonical form is exactly the abstract
/// state).
[[nodiscard]] bool equivalent(const DataType& type, const Sequence& rho1, const Sequence& rho2);

}  // namespace lintime::adt
