// The repository benchmark program. One process runs one workload:
//
//   job_cold_reopt32     one closed-loop client; every statement is parsed,
//                        bound into a fresh QuerySession, run with
//                        re-optimization at Q-error 32, and torn down.
//   job_warm_exec        one closed-loop client over WorkloadRunner's cached
//                        sessions, re-optimization off, after a warm-up pass.
//   service_zipf_closed  an embedded SqlServer (2 session workers,
//                        re-optimization at 32) fed by 4 closed-loop client
//                        sessions drawing statements from Zipf(0.8).
//
// Set-up (generation at IMDB scale 1, workload build, a serial reference
// reply per statement, warm-up) is repeated three times and its median is
// setup_s. The timed phase then runs for at least --seconds, in whole passes
// (job_*) or until every client's in-flight statement returns (service), and
// every reply is compared with the reference: aggregates, raw_rows,
// simulated plan/exec cost units and materialization count. Any mismatch or
// error fails the run.
//
// --trace=1 is a separate run for the per-layer metrics. On the job_*
// workloads it alternates untraced and traced passes; traced passes record
// spans from this file around the public calls into each layer, keep them
// in memory, and write them to --spans at the end. Layers QueryRunner::Run
// enters internally (the Q-error trigger's oracle calls, the final
// execution) are measured by replaying the same call on the plan the public
// plan-observer hook hands out. On the service the per-layer metrics come
// from the server's replies and counters. See perfbench/README.md.
//
// The last stdout line is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics"; the lines before it are the human
// report, one metric per line with its unit and sample count.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/executor.h"
#include "imdb/imdb.h"
#include "optimizer/cardinality_model.h"
#include "optimizer/planner.h"
#include "optimizer/query_context.h"
#include "optimizer/true_cardinality.h"
#include "plan/physical_plan.h"
#include "reopt/query_runner.h"
#include "service/sql_server.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "workload/job_like.h"
#include "workload/runner.h"

namespace {

using namespace reopt;  // NOLINT: benchmark program
using Clock = std::chrono::steady_clock;

constexpr double kScale = 1.0;
constexpr double kQErrorThreshold = 32.0;
constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 4;
constexpr double kZipfTheta = 0.8;
// Statements per service block before rounding; see ServiceStreams.
constexpr int kZipfBlockSize = 339;
constexpr int kZipfBlocks = 64;
// Set-up repetitions behind the setup_s median.
constexpr int kSetups = 3;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

enum class Kind { kColdReopt, kWarmExec, kService };

struct Workload {
  const char* name;
  Kind kind;
  bool reopt;
};

constexpr Workload kWorkloads[] = {
    {"job_cold_reopt32", Kind::kColdReopt, true},
    {"job_warm_exec", Kind::kWarmExec, false},
    {"service_zipf_closed", Kind::kService, true},
};

reoptimizer::ReoptOptions ReoptFor(const Workload& w) {
  reoptimizer::ReoptOptions r;
  r.enabled = w.reopt;
  r.qerror_threshold = kQErrorThreshold;
  return r;
}

struct Flags {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: perturbs this statement's reference reply so the reply
  // check must fail (-1 = off).
  int corrupt_reference = -1;
  std::string spans_path;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench: expected --flag=value, got %s\n",
                   arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) flags->workload = &w;
      }
      if (flags->workload == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     value.c_str());
        return false;
      }
      continue;
    }
    if (key == "spans") {
      flags->spans_path = value;
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: --%s expects a number, got %s\n",
                   key.c_str(), value.c_str());
      return false;
    }
    if (key == "seed" && v >= 0 && v < 1e18 && v == std::floor(v)) {
      flags->seed = static_cast<uint64_t>(v);
    } else if (key == "seconds" && v > 0 && v <= 3600) {
      flags->seconds = v;
    } else if (key == "trace" && (v == 0 || v == 1)) {
      flags->trace = v == 1;
    } else if (key == "corrupt-reference" && v >= 0 && v < 1e6) {
      flags->corrupt_reference = static_cast<int>(v);
    } else {
      std::fprintf(stderr, "perfbench: bad or out-of-range flag %s\n",
                   arg.c_str());
      return false;
    }
  }
  if (flags->workload == nullptr) {
    std::fprintf(stderr, "perfbench: --workload is required\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Replies and the reference check
// ---------------------------------------------------------------------------

struct Reply {
  std::vector<common::Value> aggregates;
  int64_t raw_rows = 0;
  double plan_cost_units = 0.0;
  double exec_cost_units = 0.0;
  int materializations = 0;
};

Reply FromRun(const reoptimizer::RunResult& r) {
  return Reply{r.aggregates, r.raw_rows, r.plan_cost_units, r.exec_cost_units,
               r.num_materializations};
}

Reply FromOutcome(const sql::StatementOutcome& o) {
  return Reply{o.aggregates, o.raw_rows, o.plan_cost_units, o.exec_cost_units,
               o.num_materializations};
}

bool SameReply(const Reply& a, const Reply& b) {
  return a.aggregates == b.aggregates && a.raw_rows == b.raw_rows &&
         a.plan_cost_units == b.plan_cost_units &&
         a.exec_cost_units == b.exec_cost_units &&
         a.materializations == b.materializations;
}

// Counts attempted and failed statements; reports the first few failures.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(const std::string& name, const common::Status& status,
             const Reply& got, const Reply& want) {
    ++attempted;
    if (status.ok() && SameReply(got, want)) return;
    if (++failed > 10) return;
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL: %s errored: %s\n", name.c_str(),
                   status.ToString().c_str());
      return;
    }
    std::fprintf(stderr,
                 "FAIL: %s diverged from the reference (rows %lld vs %lld, "
                 "plan %.6f vs %.6f, exec %.6f vs %.6f, mats %d vs %d)\n",
                 name.c_str(), static_cast<long long>(got.raw_rows),
                 static_cast<long long>(want.raw_rows), got.plan_cost_units,
                 want.plan_cost_units, got.exec_cost_units,
                 want.exec_cost_units, got.materializations,
                 want.materializations);
  }
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<imdb::ImdbDatabase> db;
  std::unique_ptr<workload::JobLikeWorkload> queries;
  std::vector<std::string> names;
  std::vector<std::string> sql;
  std::vector<Reply> reference;
  // job_warm_exec: statements parsed once, run over cached sessions.
  std::vector<sql::ParsedStatement> parsed;
  std::unique_ptr<workload::WorkloadRunner> warm_runner;
  // service_zipf_closed; declared last so it shuts down before the
  // database it reads is destroyed.
  std::unique_ptr<service::SqlServer> server;
  double generate_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this file around public calls, kept in memory,
// written out at the end.
// ---------------------------------------------------------------------------

struct Span {
  int64_t statement;
  int parent;  // index into the log; -1 for a statement's root span
  const char* name;
  double start_us;
  double end_us;
  // A measured copy of work QueryRunner::Run does internally, made only to
  // attribute it; not part of the statement's own work.
  bool replay;
};

// Counts recorded at the same boundaries as the spans.
struct LayerCounts {
  int64_t estimates = 0;
  int64_t paths = 0;
  int64_t oracle_calls = 0;
  int64_t exec_rows = 0;
  int64_t materializations = 0;
  int64_t materialized_rows = 0;
};

class Tracer {
 public:
  Tracer(Setup* s, const reoptimizer::ReoptOptions& reopt)
      : s_(s), reopt_(reopt), epoch_(Clock::now()) {
    spans_.reserve(1 << 16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void BeginStatement() { root_ = Open("statement", -1, false); }
  void EndStatement() {
    Close(root_);
    ++statement_;
  }
  // A span under the current statement.
  int Open(const char* name, bool replay = false) {
    return Open(name, root_, replay);
  }
  void Close(int span) { spans_[static_cast<size_t>(span)].end_us = Now(); }

  // Opens the span QueryRunner::Run is timed in; the plan observer's
  // replays hang under it.
  void OpenRun() { run_ = Open("reopt.run"); }
  void CloseRun() { Close(run_); }

  // Round-0 planning, replayed: Run plans a fresh session from scratch with
  // a fresh estimator model.
  void ReplayPlanning(const optimizer::QueryContext* ctx) {
    const int span = Open("optimizer.plan", true);
    optimizer::EstimatorModel model(ctx);
    optimizer::Planner planner(ctx, &model, optimizer::CostParams{});
    auto planned = planner.Plan();
    Close(span);
    if (planned.ok()) {
      counts_.estimates += planned->num_estimates;
      counts_.paths += planned->num_paths;
    }
  }

  // Installs the plan observer that replays, on each round's plan, the
  // Q-error trigger's oracle calls over the plan's join nodes (on a freshly
  // bound oracle, as Run binds one per round) and, on the round the trigger
  // passes, the final execution on a clone of the plan. A final round-0
  // plan is executed after Run returns (ReplayDeferred), so that the replay
  // does not warm the caches for Run's own execution; a later round's plan
  // reads temp tables that exist only during Run, so it is executed here.
  void Observe(reoptimizer::QueryRunner* runner) {
    runner->set_plan_observer([this](int round, const plan::PlanNode& root,
                                     const plan::QuerySpec& spec) {
      const int observer = Open("trace.observer", run_, true);
      bool final_round = true;
      if (reopt_.enabled) {
        auto ctx = optimizer::QueryContext::Bind(&spec, &s_->db->catalog,
                                                 &s_->db->stats);
        if (ctx.ok()) {
          optimizer::TrueCardinalityOracle oracle(ctx->get());
          const int span = Open("optimizer.oracle", observer, false);
          root.PostOrderConst([&](const plan::PlanNode* node) {
            if (!node->is_join()) return;
            const double est = std::max(1.0, node->est_rows);
            const double truth = std::max(1.0, oracle.True(node->rels));
            ++counts_.oracle_calls;
            if (std::max(truth / est, est / truth) > reopt_.qerror_threshold) {
              final_round = false;
            }
          });
          Close(span);
        }
      }
      if (final_round) {
        if (round == 0) {
          deferred_ = plan::ClonePlan(root);
          deferred_spec_ = &spec;
        } else {
          Execute(spec, root, observer, false);
        }
      }
      Close(observer);
    });
  }

  void ReplayDeferred() {
    if (deferred_ == nullptr) return;
    Execute(*deferred_spec_, *deferred_, root_, true);
    deferred_.reset();
  }

  void CountRun(const reoptimizer::RunResult& run) {
    counts_.materializations += run.num_materializations;
    counts_.materialized_rows += run.materialized_rows;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const LayerCounts& counts() const { return counts_; }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "index\tstatement\tparent\tname\tstart_us\tend_us\treplay\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(f, "%zu\t%lld\t%d\t%s\t%.3f\t%.3f\t%d\n", i,
                   static_cast<long long>(span.statement), span.parent,
                   span.name, span.start_us, span.end_us,
                   span.replay ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

 private:
  int Open(const char* name, int parent, bool replay) {
    const double now = Now();
    spans_.push_back(Span{statement_, parent, name, now, now, replay});
    return static_cast<int>(spans_.size()) - 1;
  }
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  void Execute(const plan::QuerySpec& spec, const plan::PlanNode& root,
               int parent, bool replay) {
    plan::PlanNodePtr clone = plan::ClonePlan(root);
    exec::Executor executor(&s_->db->catalog, &s_->db->stats,
                            optimizer::CostParams{});
    const int span = Open("exec.execute", parent, replay);
    auto executed = executor.Execute(spec, clone.get());
    Close(span);
    if (executed.ok()) counts_.exec_rows += executed->raw_rows;
  }

  Setup* s_;
  reoptimizer::ReoptOptions reopt_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  LayerCounts counts_;
  int64_t statement_ = 0;
  int root_ = -1;
  int run_ = -1;
  plan::PlanNodePtr deferred_;
  const plan::QuerySpec* deferred_spec_ = nullptr;
};

// ---------------------------------------------------------------------------
// Statement paths. `tracer` is null outside traced passes.
// ---------------------------------------------------------------------------

// One statement the cold way: parse, bind a fresh session, run, tear down.
common::Result<Reply> RunCold(Setup* s, reoptimizer::QueryRunner* runner,
                              const reoptimizer::ReoptOptions& reopt,
                              size_t qi, Tracer* tracer) {
  int span = -1;
  if (tracer != nullptr) {
    tracer->BeginStatement();
    span = tracer->Open("sql.parse");
  }
  auto parsed = sql::ParseStatement(s->sql[qi], s->db->catalog, s->names[qi]);
  if (tracer != nullptr) tracer->Close(span);
  if (!parsed.ok()) return parsed.status();

  if (tracer != nullptr) span = tracer->Open("reopt.bind");
  auto session = reoptimizer::QuerySession::Create(
      parsed->query.get(), &s->db->catalog, &s->db->stats);
  if (tracer != nullptr) tracer->Close(span);
  if (!session.ok()) return session.status();

  if (tracer != nullptr) {
    tracer->ReplayPlanning(session.value()->ctx());
    tracer->OpenRun();
  }
  auto run = runner->Run(session.value().get(),
                         reoptimizer::ModelSpec::Estimator(), reopt);
  if (tracer != nullptr) {
    tracer->CloseRun();
    tracer->ReplayDeferred();
    span = tracer->Open("reopt.teardown");
  }
  session.value().reset();
  parsed.value().query.reset();
  if (tracer != nullptr) {
    tracer->Close(span);
    tracer->EndStatement();
  }
  if (!run.ok()) return run.status();
  if (tracer != nullptr) tracer->CountRun(*run);
  return FromRun(*run);
}

// One statement the warm way: a cached session, re-optimization off.
common::Result<Reply> RunWarm(Setup* s, const reoptimizer::ReoptOptions& reopt,
                              size_t qi, Tracer* tracer) {
  if (tracer != nullptr) {
    tracer->BeginStatement();
    tracer->OpenRun();
  }
  auto run = s->warm_runner->RunOne(s->parsed[qi].query.get(),
                                    reoptimizer::ModelSpec::Estimator(),
                                    reopt);
  if (tracer != nullptr) {
    tracer->CloseRun();
    tracer->ReplayDeferred();
    tracer->EndStatement();
  }
  if (!run.ok()) return run.status();
  if (tracer != nullptr) tracer->CountRun(*run);
  return FromRun(*run);
}

common::Status BuildSetup(const Workload& w, Setup* s) {
  const auto t0 = Clock::now();
  imdb::ImdbOptions options;
  options.scale = kScale;
  s->db = imdb::BuildImdbDatabase(options);
  const auto t1 = Clock::now();
  s->queries = workload::BuildJobLikeWorkload(s->db->catalog);
  for (const auto& q : s->queries->queries) {
    s->names.push_back(q->name);
    s->sql.push_back(sql::RenderSql(*q));
  }
  const auto t2 = Clock::now();
  s->generate_s = Seconds(t0, t1);
  s->build_s = Seconds(t1, t2);

  // Serial single-session reference: every statement from its SQL text,
  // through a fresh session, in the workload's configuration.
  const reoptimizer::ReoptOptions reopt = ReoptFor(w);
  {
    reoptimizer::QueryRunner runner(&s->db->catalog, &s->db->stats,
                                    optimizer::CostParams{});
    runner.set_temp_namespace("reference");
    for (size_t qi = 0; qi < s->sql.size(); ++qi) {
      auto reply = RunCold(s, &runner, reopt, qi, nullptr);
      if (!reply.ok()) return reply.status();
      s->reference.push_back(std::move(reply.value()));
    }
  }

  // Warm-up: fill the caches the timed phase relies on, checking replies.
  if (w.kind == Kind::kWarmExec) {
    s->warm_runner = std::make_unique<workload::WorkloadRunner>(s->db.get());
    for (size_t qi = 0; qi < s->sql.size(); ++qi) {
      auto parsed =
          sql::ParseStatement(s->sql[qi], s->db->catalog, s->names[qi]);
      if (!parsed.ok()) return parsed.status();
      s->parsed.push_back(std::move(parsed.value()));
    }
    for (size_t qi = 0; qi < s->parsed.size(); ++qi) {
      auto reply = RunWarm(s, reopt, qi, nullptr);
      if (!reply.ok()) return reply.status();
      if (!SameReply(*reply, s->reference[qi])) {
        return common::Status::Internal("warm-up reply of " + s->names[qi] +
                                        " diverged from the reference");
      }
    }
  } else if (w.kind == Kind::kService) {
    service::ServerOptions server_options;
    server_options.session_workers = kServiceWorkers;
    server_options.model = reoptimizer::ModelSpec::Estimator();
    server_options.reopt = reopt;
    s->server = std::make_unique<service::SqlServer>(
        &s->db->catalog, &s->db->stats, server_options);
    service::SqlSession* session = s->server->OpenSession("warmup");
    for (size_t qi = 0; qi < s->sql.size(); ++qi) {
      service::QueryReply reply = session->Execute(s->sql[qi]);
      if (!reply.status.ok()) return reply.status;
      if (!SameReply(FromOutcome(reply.outcome), s->reference[qi])) {
        return common::Status::Internal("warm-up reply of " + s->names[qi] +
                                        " diverged from the reference");
      }
    }
  }
  s->total_s = Seconds(t0, Clock::now());
  return common::Status::OK();
}

// ---------------------------------------------------------------------------
// Timed phases
// ---------------------------------------------------------------------------

struct Phase {
  std::vector<double> latency_s;  // per statement, send to reply
  double elapsed_s = 0.0;
  int passes = 0;
  // service_zipf_closed only.
  std::vector<double> queue_s;
  int64_t cache_hits = 0;
  int64_t materializations = 0;
};

// The statement order of pass `pass`: a seeded shuffle of the workload.
std::vector<size_t> PassOrder(uint64_t seed, int pass, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(pass));
  rng.Shuffle(&order);
  return order;
}

// job_* workloads: whole passes, from pass `first_pass` on, until
// `min_seconds` have elapsed (at least one pass).
Phase RunJobPasses(const Workload& w, Setup* s, uint64_t seed,
                   double min_seconds, int first_pass, Tracer* tracer,
                   Tally* tally) {
  const reoptimizer::ReoptOptions reopt = ReoptFor(w);
  reoptimizer::QueryRunner cold_runner(&s->db->catalog, &s->db->stats,
                                       optimizer::CostParams{});
  reoptimizer::QueryRunner* runner = w.kind == Kind::kColdReopt
                                         ? &cold_runner
                                         : s->warm_runner->query_runner();
  if (tracer != nullptr) tracer->Observe(runner);
  Phase phase;
  const auto start = Clock::now();
  for (int pass = first_pass;; ++pass) {
    for (size_t qi : PassOrder(seed, pass, s->sql.size())) {
      const auto t0 = Clock::now();
      auto reply = w.kind == Kind::kColdReopt
                       ? RunCold(s, runner, reopt, qi, tracer)
                       : RunWarm(s, reopt, qi, tracer);
      phase.latency_s.push_back(Seconds(t0, Clock::now()));
      tally->Check(s->names[qi], reply.status(),
                   reply.ok() ? reply.value() : Reply{}, s->reference[qi]);
    }
    ++phase.passes;
    if (Seconds(start, Clock::now()) >= min_seconds) break;
  }
  phase.elapsed_s = Seconds(start, Clock::now());
  runner->set_plan_observer(nullptr);
  return phase;
}

// The service clients' statement streams. Statements are drawn from
// Zipf(theta) popularity over the workload order (rank k = statement k-1)
// in stratified blocks: every block holds statement k max(1, round(w_k x
// block size)) times, where w_k is its Zipf probability, and is shuffled by
// the seed. Every block thus has the same mix; seeds differ in the order
// and in the dealing, which is round-robin over the shuffled blocks.
std::vector<std::vector<size_t>> ServiceStreams(uint64_t seed, size_t n) {
  std::vector<double> weight(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), kZipfTheta);
    total += weight[k];
  }
  std::vector<size_t> block;
  for (size_t k = 0; k < n; ++k) {
    const long copies =
        std::max(1L, std::lround(weight[k] / total * kZipfBlockSize));
    block.insert(block.end(), static_cast<size_t>(copies), k);
  }
  common::Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x5EA11CEULL);
  std::vector<std::vector<size_t>> streams(kServiceClients);
  size_t next_client = 0;
  for (int b = 0; b < kZipfBlocks; ++b) {
    rng.Shuffle(&block);
    for (size_t qi : block) {
      streams[next_client].push_back(qi);
      next_client = (next_client + 1) % streams.size();
    }
  }
  return streams;
}

// service_zipf_closed: every client sends its next statement when the
// previous reply arrives, until `seconds` have elapsed; the phase ends when
// the last in-flight statement returns.
Phase RunService(Setup* s, uint64_t seed, double seconds, Tally* tally) {
  const std::vector<std::vector<size_t>> streams =
      ServiceStreams(seed, s->sql.size());
  struct Client {
    service::SqlSession* session = nullptr;
    std::vector<size_t> sent;
    std::vector<service::QueryReply> replies;
    std::vector<double> latency_s;
  };
  std::vector<Client> clients(streams.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    clients[c].session = s->server->OpenSession("client" + std::to_string(c));
  }
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      for (size_t qi : streams[c]) {
        if (Clock::now() >= deadline) break;
        const auto t0 = Clock::now();
        client.replies.push_back(client.session->Execute(s->sql[qi]));
        client.latency_s.push_back(Seconds(t0, Clock::now()));
        client.sent.push_back(qi);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.elapsed_s = Seconds(start, Clock::now());
  for (const Client& client : clients) {
    for (size_t i = 0; i < client.sent.size(); ++i) {
      const size_t qi = client.sent[i];
      const service::QueryReply& reply = client.replies[i];
      tally->Check(s->names[qi], reply.status,
                   reply.status.ok() ? FromOutcome(reply.outcome) : Reply{},
                   s->reference[qi]);
      phase.latency_s.push_back(client.latency_s[i]);
      phase.queue_s.push_back(reply.queue_seconds);
      if (reply.cache_hit) ++phase.cache_hits;
      if (reply.status.ok()) {
        phase.materializations += reply.outcome.num_materializations;
      }
    }
  }
  return phase;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

// Continued fraction of the regularized incomplete beta function (modified
// Lentz method).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 / clamp(1.0 + aa * d);
    c = clamp(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 / clamp(1.0 + aa * d);
    c = clamp(1.0 + aa / c);
    h *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-13) break;
  }
  return h;
}

// I_x(a, b), the regularized incomplete beta function.
double RegularizedBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

// The p-quantile of a non-empty sample by the Harrell-Davis estimator: a
// Beta-weighted mean of all order statistics. Where the tail is sparse
// (a few statements around p90, each a few ms apart) the nearest-rank
// percentile jumps between neighbouring statements from run to run; this
// estimator moves smoothly.
double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  double quantile = 0.0;
  double below = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double upto =
        RegularizedBeta(a, b, static_cast<double>(i + 1) / n);
    quantile += (upto - below) * v[i];
    below = upto;
  }
  return quantile;
}

// The middle value (mean of the middle two for an even count).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

// A percentile is reported only with at least ten samples beyond it.
bool Supports(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-28s %18.6f %-6s n=%lld\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<long long>(tally.attempted),
      static_cast<long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// End-to-end metrics of an untraced timed phase.
std::vector<Metric> EndToEnd(const Phase& phase,
                             const std::vector<double>& setup_s) {
  const auto n = static_cast<int64_t>(phase.latency_s.size());
  return {
      {"setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size())},
      {"throughput_qps", static_cast<double>(n) / phase.elapsed_s, "1/s", n},
      {"latency_p50_ms", Percentile(phase.latency_s, 0.5) * 1e3, "ms", n},
      {"latency_p90_ms", Percentile(phase.latency_s, 0.9) * 1e3, "ms", n},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
  };
}

struct Layer {
  const char* name;
  double us;
};

// Every per-layer metric with its unit, in the order BENCHMARK.json lists
// them (set-up timings first).
constexpr const char* kLayerMetrics[][2] = {
    {"imdb.generate_s", "s"},
    {"workload.build_s", "s"},
    {"sql.parse_us", "us"},
    {"reopt.bind_us", "us"},
    {"reopt.teardown_us", "us"},
    {"optimizer.plan_us", "us"},
    {"optimizer.estimates", "count"},
    {"optimizer.paths", "count"},
    {"optimizer.oracle_us", "us"},
    {"optimizer.oracle_calls", "count"},
    {"exec.execute_us", "us"},
    {"exec.rows", "count"},
    {"reopt.run_self_us", "us"},
    {"reopt.materializations", "count"},
    {"reopt.materialized_rows", "count"},
    {"reopt.trigger_hit_ratio", "ratio"},
    {"service.queue_wait_p50_ms", "ms"},
    {"service.queue_wait_p90_ms", "ms"},
    {"service.busy_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.retried", "count"},
    {"service.rejected", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.replay_share", "ratio"},
};

// Measured per-layer values by name, with their sample counts.
using LayerValues = std::map<std::string, std::pair<double, int64_t>>;

// The full per-layer metric list. A layer the workload does not enter
// reads 0 with no samples.
std::vector<Metric> LayerMetrics(const LayerValues& values) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    const auto [value, samples] =
        it == values.end() ? std::pair<double, int64_t>{0.0, 0} : it->second;
    metrics.push_back({name, value, unit, samples});
  }
  return metrics;
}

// Per-layer values of a traced job_* run: spans summed by name.
LayerValues JobLayers(const Tracer& tracer, const Phase& untraced,
                      const Phase& traced, size_t pass_size,
                      std::vector<Layer>* layers) {
  std::map<std::string, double> us;
  double replay = 0.0;
  for (const Span& span : tracer.spans()) {
    us[span.name] += span.end_us - span.start_us;
    if (span.replay) replay += span.end_us - span.start_us;
  }
  // QueryRunner::Run minus the observer spans inside it, minus the replayed
  // copies of the layers it enters: materialization, temp-table ANALYZE,
  // rewrite and re-planning remain.
  const double run_self = us["reopt.run"] - us["trace.observer"] -
                          us["optimizer.plan"] - us["optimizer.oracle"] -
                          us["exec.execute"];
  const auto n = static_cast<int64_t>(traced.latency_s.size());
  const double per_stmt = 1.0 / static_cast<double>(n);
  const double per_pass = static_cast<double>(pass_size) * per_stmt;
  const LayerCounts& c = tracer.counts();
  // Statement time with the replays taken out, against the untraced
  // statement time: what recording the spans costs.
  const double traced_mean =
      (Sum(traced.latency_s) - replay * 1e-6) * per_stmt;
  const double untraced_mean =
      Sum(untraced.latency_s) / static_cast<double>(untraced.latency_s.size());
  *layers = {{"sql.parse", us["sql.parse"]},
             {"reopt.bind", us["reopt.bind"]},
             {"optimizer.plan", us["optimizer.plan"]},
             {"optimizer.oracle", us["optimizer.oracle"]},
             {"exec", us["exec.execute"]},
             {"reopt.run_self", run_self},
             {"reopt.teardown", us["reopt.teardown"]}};
  auto count = [&](int64_t v) {
    return std::make_pair(static_cast<double>(v) * per_pass, n);
  };
  return {
      {"sql.parse_us", {us["sql.parse"] * per_stmt, n}},
      {"reopt.bind_us", {us["reopt.bind"] * per_stmt, n}},
      {"reopt.teardown_us", {us["reopt.teardown"] * per_stmt, n}},
      {"optimizer.plan_us", {us["optimizer.plan"] * per_stmt, n}},
      {"optimizer.estimates", count(c.estimates)},
      {"optimizer.paths", count(c.paths)},
      {"optimizer.oracle_us", {us["optimizer.oracle"] * per_stmt, n}},
      {"optimizer.oracle_calls", count(c.oracle_calls)},
      {"exec.execute_us", {us["exec.execute"] * per_stmt, n}},
      {"exec.rows", count(c.exec_rows)},
      {"reopt.run_self_us", {run_self * per_stmt, n}},
      {"reopt.materializations", count(c.materializations)},
      {"reopt.materialized_rows", count(c.materialized_rows)},
      {"reopt.trigger_hit_ratio",
       {c.oracle_calls > 0 ? static_cast<double>(c.materializations) /
                                 static_cast<double>(c.oracle_calls)
                           : 0.0,
        c.oracle_calls}},
      {"trace.overhead_pct", {(traced_mean / untraced_mean - 1.0) * 100.0, n}},
      {"trace.replay_share", {replay / us["statement"], n}},
  };
}

// Per-layer values of the service: its replies and counters.
LayerValues ServiceLayers(const Phase& phase, const service::ServerStats& stats,
                          size_t pass_size, std::vector<Layer>* layers) {
  const auto n = static_cast<int64_t>(phase.latency_s.size());
  const double per_stmt = 1.0 / static_cast<double>(n);
  const double queue_us = Sum(phase.queue_s) * 1e6;
  const double busy_us = Sum(phase.latency_s) * 1e6 - queue_us;
  *layers = {{"service.queue_wait", queue_us}, {"service.busy", busy_us}};
  return {
      {"reopt.materializations",
       {static_cast<double>(phase.materializations) *
            static_cast<double>(pass_size) * per_stmt,
        n}},
      {"service.queue_wait_p50_ms", {Percentile(phase.queue_s, 0.5) * 1e3, n}},
      {"service.queue_wait_p90_ms", {Percentile(phase.queue_s, 0.9) * 1e3, n}},
      {"service.busy_us", {busy_us * per_stmt, n}},
      {"service.cache_hit_ratio",
       {static_cast<double>(phase.cache_hits) * per_stmt, n}},
      {"service.retried", {static_cast<double>(stats.retried), n}},
      {"service.rejected", {static_cast<double>(stats.rejected), n}},
  };
}

void PrintDominant(const std::vector<Layer>& layers) {
  double total = 0.0;
  const Layer* dominant = &layers.front();
  for (const Layer& l : layers) {
    total += std::max(l.us, 0.0);
    if (l.us > dominant->us) dominant = &l;
  }
  std::printf("layer shares:");
  for (const Layer& l : layers) {
    std::printf(" %s %.1f%%", l.name, 100.0 * l.us / total);
  }
  std::printf("\ndominant layer: %s (%.1f%%)\n", dominant->name,
              100.0 * dominant->us / total);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  const Workload& w = *flags.workload;

  // Set-up, several times; the last one serves the timed phase.
  std::vector<double> setup_s, generate_s, build_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    setup = std::make_unique<Setup>();
    const common::Status status = BuildSetup(w, setup.get());
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(setup->total_s);
    generate_s.push_back(setup->generate_s);
    build_s.push_back(setup->build_s);
  }
  Setup* s = setup.get();
  if (flags.corrupt_reference >= 0) {
    const size_t qi =
        static_cast<size_t>(flags.corrupt_reference) % s->reference.size();
    s->reference[qi].raw_rows += 1;
    std::fprintf(stderr, "perfbench: corrupted the reference reply of %s\n",
                 s->names[qi].c_str());
  }

  std::printf("perfbench %s  seed %llu  scale %.1f  %zu statements  "
              "set-ups %d  trace %d\n",
              w.name, static_cast<unsigned long long>(flags.seed), kScale,
              s->sql.size(), kSetups, flags.trace ? 1 : 0);
  Tally tally;
  std::vector<Metric> metrics;
  const auto setups = static_cast<int64_t>(setup_s.size());

  if (!flags.trace) {
    const Phase phase =
        w.kind == Kind::kService
            ? RunService(s, flags.seed, flags.seconds, &tally)
            : RunJobPasses(w, s, flags.seed, flags.seconds, 0, nullptr,
                           &tally);
    const size_t n = phase.latency_s.size();
    if (!Supports(n, 0.9)) {
      std::fprintf(stderr, "perfbench: %zu samples cannot support p90\n", n);
      return 1;
    }
    metrics = EndToEnd(phase, setup_s);
    std::printf("timed phase: %.3f s, %zu statements", phase.elapsed_s, n);
    if (phase.passes > 0) std::printf(", %d passes", phase.passes);
    std::printf("\n");
    for (const Metric& m : metrics) PrintMetric(m);
    PrintMetric({"error_rate",
                 static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted),
                 "ratio", tally.attempted});
    if (Supports(n, 0.99)) {
      PrintMetric({"latency_p99_ms", Percentile(phase.latency_s, 0.99) * 1e3,
                   "ms", static_cast<int64_t>(n)});
    }
  } else {
    std::vector<Layer> layers;
    LayerValues values;
    if (w.kind == Kind::kService) {
      const Phase phase = RunService(s, flags.seed, flags.seconds, &tally);
      values =
          ServiceLayers(phase, s->server->Snapshot(), s->sql.size(), &layers);
      std::printf("traced phase: %.3f s, %zu statements\n", phase.elapsed_s,
                  phase.latency_s.size());
    } else {
      // Untraced and traced passes alternate until both together have run
      // for --seconds, so the tracing overhead compares like with like.
      Tracer tracer(s, ReoptFor(w));
      Phase untraced, traced;
      for (int pass = 0;
           pass == 0 || untraced.elapsed_s + traced.elapsed_s < flags.seconds;
           pass += 2) {
        for (Phase* side : {&untraced, &traced}) {
          const bool traced_side = side == &traced;
          Phase p = RunJobPasses(w, s, flags.seed, 0.0, pass + traced_side,
                                 traced_side ? &tracer : nullptr, &tally);
          side->latency_s.insert(side->latency_s.end(), p.latency_s.begin(),
                                 p.latency_s.end());
          side->elapsed_s += p.elapsed_s;
          side->passes += p.passes;
        }
      }
      values = JobLayers(tracer, untraced, traced, s->sql.size(), &layers);
      std::printf("untraced %d passes %.3f s, traced %d passes %.3f s\n",
                  untraced.passes, untraced.elapsed_s, traced.passes,
                  traced.elapsed_s);
      if (!flags.spans_path.empty() && !tracer.Write(flags.spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     flags.spans_path.c_str());
        return 1;
      }
    }
    values["imdb.generate_s"] = {Median(generate_s), setups};
    values["workload.build_s"] = {Median(build_s), setups};
    metrics = LayerMetrics(values);
    for (const Metric& m : metrics) PrintMetric(m);
    PrintDominant(layers);
  }

  const bool correct = tally.failed == 0 && tally.attempted > 0;
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}
