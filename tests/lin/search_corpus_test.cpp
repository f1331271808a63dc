// Pins the tree the Wing-Gong search explores on a seeded corpus: for every
// history, the verdict, nodes expanded, memo hits, memo collisions and the
// witness must equal the line recorded in lin/search_corpus.txt.  A change
// that makes search nodes cheaper must leave all of them exactly as they
// are; a change that alters the search itself shows up here line by line.
//
// The corpus covers every route into the search:
//   * linearizability over queue, stack, register, set, counter and tree
//     histories from Algorithm 1, built as BM_CheckerThroughput_* builds
//     them, plus smaller ones with two returns swapped (mostly violations,
//     so whole subtrees die and the memo works);
//   * histories of the unsafe zero-wait comparator (natural violations);
//   * sequential consistency over the queue, stack and register histories;
//   * the non-deterministic pool checker.
//
// To re-record after an intended change to the search, run this test with
// LINTIME_SEARCH_CORPUS_OUT=tests/lin/search_corpus.txt in the environment
// (--gtest_filter='SearchCorpusTest.*'); it writes the computed lines there.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adt/counter_type.hpp"
#include "adt/pool_type.hpp"
#include "adt/queue_type.hpp"
#include "adt/register_type.hpp"
#include "adt/set_type.hpp"
#include "adt/stack_type.hpp"
#include "adt/tree_type.hpp"
#include "harness/runner.hpp"
#include "lin/checker.hpp"
#include "lin/fast/history_gen.hpp"
#include "lin/nondet_checker.hpp"
#include "lin/sc_checker.hpp"

#ifndef LINTIME_SEARCH_CORPUS_FILE
#define LINTIME_SEARCH_CORPUS_FILE "tests/lin/search_corpus.txt"
#endif

namespace lintime::lin {
namespace {

/// A history of `type` under `algo` at n = 4, with the model, delays and
/// scripts of the checker-throughput benchmarks (the delay seed varies).
std::vector<sim::OpRecord> history(const adt::DataType& type, harness::AlgoKind algo,
                                   int ops_per_proc, unsigned seed) {
  harness::RunSpec spec;
  spec.params = sim::ModelParams{4, 10.0, 2.0, 0.0};
  spec.params.eps = spec.params.optimal_eps();
  spec.algo = algo;
  spec.delays = std::make_shared<sim::UniformRandomDelay>(8.0, 10.0, seed);
  spec.scripts = harness::random_scripts(type, 4, ops_per_proc, seed);
  return harness::execute(type, spec).record.ops;
}

std::string line(const std::string& name, std::size_t ops, const CheckResult& r) {
  std::ostringstream os;
  os << name << " ops=" << ops << " lin=" << (r.linearizable ? 1 : 0)
     << " nodes=" << r.nodes_expanded << " hits=" << r.memo_hits
     << " collisions=" << r.memo_collisions << " witness=";
  for (std::size_t k = 0; k < r.witness.size(); ++k) os << (k > 0 ? "," : "") << r.witness[k];
  os << '\n';
  return os.str();
}

std::string run_corpus_once() {
  const adt::QueueType queue;
  const adt::StackType stack;
  const adt::RegisterType reg;
  const adt::SetType set;
  const adt::CounterType counter;
  const adt::TreeType tree;
  struct Family {
    const adt::DataType* type;
    int ops_per_proc;  ///< the checker-throughput benchmark's size
  };
  const Family families[] = {{&queue, 10}, {&stack, 10}, {&reg, 12},
                             {&set, 10},   {&counter, 12}, {&tree, 8}};
  const auto alg1 = harness::AlgoKind::kAlgorithmOne;
  const auto zero_wait = harness::AlgoKind::kZeroWait;

  std::string out;
  for (const Family& f : families) {
    const std::string prefix = "lin/" + f.type->name();
    for (unsigned seed = 1; seed <= 4; ++seed) {
      const auto ops = history(*f.type, alg1, f.ops_per_proc, seed);
      out += line(prefix + "/alg1/seed=" + std::to_string(seed), ops.size(),
                  check_linearizability(*f.type, ops));
    }
    for (unsigned seed = 5; seed <= 6; ++seed) {
      auto ops = history(*f.type, alg1, 5, seed);
      (void)fast::swap_two_returns(ops, seed);
      out += line(prefix + "/swapped/seed=" + std::to_string(seed), ops.size(),
                  check_linearizability(*f.type, ops));
    }
  }

  // Zero-wait violations, and the same histories under the weaker
  // sequential consistency, which forgives real-time order.
  for (const Family& f : {families[0], families[1], families[2]}) {
    for (unsigned seed = 7; seed <= 8; ++seed) {
      const auto ops = history(*f.type, zero_wait, 5, seed);
      const std::string suffix = "/" + f.type->name() + "/zero-wait/seed=" + std::to_string(seed);
      out += line("lin" + suffix, ops.size(), check_linearizability(*f.type, ops));
      out += line("sc" + suffix, ops.size(), check_sequential_consistency(*f.type, ops));
    }
    const auto ops = history(*f.type, alg1, 6, 9);
    out += line("sc/" + f.type->name() + "/alg1/seed=9", ops.size(),
                check_sequential_consistency(*f.type, ops));
  }

  // The pool against its non-deterministic spec: Algorithm 1 runs of the
  // min-take resolution, swapped returns, and zero-wait runs.
  const adt::PoolType pool;
  const adt::PoolNondetSpec pool_spec;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    const auto ops = history(pool, alg1, 6, seed);
    out += line("nondet/pool/alg1/seed=" + std::to_string(seed), ops.size(),
                check_linearizability_nondet(pool_spec, ops));
  }
  for (unsigned seed = 4; seed <= 6; ++seed) {
    auto ops = history(pool, alg1, 5, seed);
    (void)fast::swap_two_returns(ops, seed);
    out += line("nondet/pool/swapped/seed=" + std::to_string(seed), ops.size(),
                check_linearizability_nondet(pool_spec, ops));
  }
  for (unsigned seed = 7; seed <= 9; ++seed) {
    const auto ops = history(pool, zero_wait, 5, seed);
    out += line("nondet/pool/zero-wait/seed=" + std::to_string(seed), ops.size(),
                check_linearizability_nondet(pool_spec, ops));
  }
  return out;
}

const std::string& run_corpus() {
  static const std::string kComputed = run_corpus_once();
  return kComputed;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) {
    if (!l.empty() && l[0] != '#') lines.push_back(l);
  }
  return lines;
}

TEST(SearchCorpusTest, ExploredTreeMatchesRecording) {
  const std::string& computed = run_corpus();
  if (const char* out_path = std::getenv("LINTIME_SEARCH_CORPUS_OUT")) {
    std::ofstream out(out_path, std::ios::binary);
    out << "# name ops lin nodes hits collisions witness -- see search_corpus_test.cpp\n"
        << computed;
    ASSERT_TRUE(out.good()) << "cannot write " << out_path;
  }

  std::ifstream in(LINTIME_SEARCH_CORPUS_FILE, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << LINTIME_SEARCH_CORPUS_FILE;
  std::ostringstream recorded;
  recorded << in.rdbuf();

  const auto want = split_lines(recorded.str());
  const auto got = split_lines(computed);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]);
}

TEST(SearchCorpusTest, CorpusExercisesBothVerdictsAndTheMemo) {
  std::size_t rejected = 0;
  std::size_t with_hits = 0;
  const auto lines = split_lines(run_corpus());
  for (const auto& l : lines) {
    if (l.find(" lin=0 ") != std::string::npos) ++rejected;
    if (l.find(" hits=0 ") == std::string::npos) ++with_hits;
  }
  EXPECT_GE(lines.size(), 60u);
  EXPECT_GE(rejected, 10u);
  EXPECT_GE(with_hits, 10u);
}

}  // namespace
}  // namespace lintime::lin
