#pragma once
// Run records: the executable counterpart of the paper's "runs" (sets of
// timed views, Section 2.2).  The simulator records every step, message and
// operation instance; the shifting machinery (src/shift) transforms these
// records exactly as Theorem 1 and Lemma 2 transform runs.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adt/op.hpp"
#include "adt/value.hpp"
#include "sim/model_params.hpp"

namespace lintime::sim {

/// What triggered a step (the three event kinds of the model).
enum class Trigger {
  kInvoke,   ///< an operation invocation arrived from the user
  kMessage,  ///< receipt of a message
  kTimer,    ///< a previously-set timer went off
};

[[nodiscard]] constexpr const char* to_string(Trigger t) {
  switch (t) {
    case Trigger::kInvoke: return "invoke";
    case Trigger::kMessage: return "message";
    case Trigger::kTimer: return "timer";
  }
  return "?";
}

/// One step of one process's timed view.
struct StepRecord {
  ProcId proc = 0;
  Time real_time = 0;
  Time clock_time = 0;
  Trigger trigger = Trigger::kInvoke;

  // Trigger detail:
  std::uint64_t message_id = 0;  ///< for kMessage
  std::uint64_t timer_id = 0;    ///< for kTimer
  std::string op;                ///< for kInvoke
  adt::Value arg;                ///< for kInvoke

  std::vector<std::uint64_t> sent_message_ids;  ///< messages sent in this step
  bool responded = false;                       ///< did this step emit a response
  adt::Value response;                          ///< the response, if responded
};

/// One message: send/receive endpoints in real time.
struct MessageRecord {
  std::uint64_t id = 0;
  ProcId src = 0;
  ProcId dst = 0;
  Time send_real = 0;
  Time recv_real = 0;
  bool received = false;

  [[nodiscard]] Time delay() const { return recv_real - send_real; }
};

/// One completed operation instance with its real-time interval -- the unit
/// the linearizability checker consumes.
struct OpRecord {
  ProcId proc = 0;
  std::string op;
  adt::Value arg;
  adt::Value ret;
  Time invoke_real = 0;
  Time response_real = -1;  ///< -1 until the response is emitted
  std::uint64_t uid = 0;    ///< unique per run, stable across shifting

  /// Interned id of `op` against the run's data type, stamped by the World
  /// when WorldConfig::type is set; invalid otherwise (records loaded from
  /// traces, or restricted composite histories whose names were rewritten).
  /// `op` remains authoritative -- the checkers re-resolve names themselves.
  adt::OpId op_id;

  [[nodiscard]] bool complete() const { return response_real >= invoke_real; }
  [[nodiscard]] Time latency() const { return response_real - invoke_real; }

  [[nodiscard]] std::string to_string() const;
};

/// A complete recorded run.
struct RunRecord {
  ModelParams params;
  std::vector<Time> clock_offsets;  ///< c_i per process
  /// In global real-time order as executed: real_time never decreases.
  /// World records them so, shift() stable-sorts them, chop_run() keeps a
  /// subsequence, and read_record() rejects a trace that breaks the order.
  std::vector<StepRecord> steps;
  std::vector<MessageRecord> messages;
  std::vector<OpRecord> ops;

  /// last-time of the run: the last step's real time, the maximum (0 if
  /// empty).
  [[nodiscard]] Time last_time() const { return steps.empty() ? 0 : steps.back().real_time; }
  /// first-time: the first step's real time, the minimum (0 if empty).
  [[nodiscard]] Time first_time() const { return steps.empty() ? 0 : steps.front().real_time; }

  /// The steps of one process, in order (a timed view).
  [[nodiscard]] std::vector<StepRecord> view_of(ProcId p) const;
};

}  // namespace lintime::sim
