// Batch workloads: the paper's DFS search on paper-scale problems
// (batch-search) and one large greedy reconcile on the sparse path
// (batch-bulk).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/policy.hpp"
#include "core/reconciler.hpp"
#include "core/selection.hpp"
#include "jigsaw/experiment.hpp"
#include "solver/backend.hpp"
#include "solver/components.hpp"
#include "solver/graph.hpp"
#include "solver/local_search.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using namespace icecube;

/// What a pass must reproduce exactly for one problem.
struct Answer {
  std::vector<ActionId> schedule;
  std::vector<ActionId> skipped;
  double cost = 0.0;
  std::uint64_t schedules_explored = 0;
  std::uint64_t sim_steps = 0;

  friend bool operator==(const Answer&, const Answer&) = default;
};

/// Output checks on a batch outcome: the schedule replays on the initial
/// universe to the reported final state, and every action is scheduled,
/// skipped or cut exactly once. Returns the number of failed checks (of 2).
std::uint64_t check_outcome(const Universe& initial,
                            const std::vector<ActionRecord>& records,
                            const Outcome& best) {
  std::uint64_t failed = 0;
  Universe replay = initial;
  bool replayed = true;
  for (ActionId id : best.schedule) {
    const Action& action = *records[id.index()].action;
    if (!action.precondition(replay) || !action.execute(replay)) {
      replayed = false;
      break;
    }
  }
  if (!replayed ||
      replay.fingerprint() != best.final_state.fingerprint()) {
    ++failed;
  }
  std::vector<int> seen(records.size(), 0);
  bool in_range = true;
  for (const auto* ids : {&best.schedule, &best.skipped, &best.cutset}) {
    for (ActionId id : *ids) {
      if (id.index() >= seen.size()) {
        in_range = false;
      } else {
        ++seen[id.index()];
      }
    }
  }
  if (!in_range ||
      std::any_of(seen.begin(), seen.end(), [](int s) { return s != 1; })) {
    ++failed;
  }
  return failed;
}

std::uint64_t digest_problem(const Universe& initial,
                             const std::vector<Log>& logs,
                             std::uint64_t hash) {
  hash = fnv1a(std::to_string(initial.fingerprint_hash()), hash);
  for (const Log& log : logs) {
    for (const ActionPtr& action : log) {
      hash = fnv1a(action->describe() + "\n", hash);
    }
    hash = fnv1a("|", hash);
  }
  return hash;
}

/// Compares `got` against the first pass's answer (recorded on first use).
void check_repeat(std::optional<Answer>& first, Answer got, PassResult& out) {
  ++out.checks;
  if (!first) {
    first = std::move(got);
  } else if (!(*first == got)) {
    ++out.failed;
  }
}

// --- batch-search ----------------------------------------------------------

struct SearchProblem {
  Universe initial;
  std::vector<Log> logs;
  std::optional<ObjectId> board;  ///< jigsaw games rank by JigsawPolicy
  std::size_t actions = 0;
  std::optional<Answer> first;
};

ReconcilerOptions search_options() {
  ReconcilerOptions options;
  options.backend = SolverKind::kDfs;
  options.heuristic = Heuristic::kAll;
  options.failure_mode = FailureMode::kSkipAction;
  options.limits.max_schedules = 100000;  // the paper's simulation cap
  options.threads = 1;
  return options;
}

class BatchSearch final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    using jigsaw::Board;
    using K = jigsaw::PlayerSpec::Kind;
    problems_.clear();
    const auto add_game = [&](Board::OrderCase order_case,
                              std::vector<jigsaw::PlayerSpec> players) {
      jigsaw::Problem game =
          jigsaw::make_problem(4, 4, order_case, std::move(players));
      add(std::move(game.initial), std::move(game.logs), game.board_id);
    };
    // §4.3 Case 1: the 20-action game (8 proper cutsets), and Case 2: the
    // 7+12 game. Both are fixed by the paper, not by the seed.
    add_game(Board::OrderCase::kSemantic, {{K::kU1, 8}, {K::kU2, 12}});
    add_game(Board::OrderCase::kKeepLogOrder, {{K::kU1, 7}, {K::kU2, 12}});
    // Seeded U1-vs-U3 games under Cases 2-4.
    for (int c = 2; c <= 4; ++c) {
      const std::uint64_t u3_seed =
          derive_seed(seed, 0x03, static_cast<std::uint64_t>(c));
      add_game(static_cast<Board::OrderCase>(c),
               {{K::kU1, 7}, {K::kU3, 12, u3_seed}});
    }
    // The 100-action Fages token/claim problem of the solver comparison
    // (fages/n100). It is fixed rather than seeded: it does most of the
    // pass's work, and its simulation steps under the cap vary 4x between
    // generator seeds, which would swamp every timing bound.
    workload::FagesSpec spec;
    spec.replicas = 4;
    spec.tasks_per_replica = 25;
    spec.seed = 107;
    workload::Generated fages = workload::fages_workload(spec);
    add(std::move(fages.initial), std::move(fages.logs), std::nullopt);
  }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    const ReconcilerOptions options = search_options();
    std::uint64_t explored = 0, sim_steps = 0, to_best = 0, preconditions = 0;
    std::uint64_t clones = 0, avoided = 0, bytes = 0, cutsets = 0;
    std::uint64_t pairs = 0, order_calls = 0, executed = 0;
    double cost = 0.0;
    for (SearchProblem& p : problems_) {
      std::optional<jigsaw::JigsawPolicy> jigsaw_policy;
      Policy neutral;
      Policy* policy = &neutral;
      if (p.board) policy = &jigsaw_policy.emplace(*p.board);

      const Section timed;
      std::optional<Reconciler> reconciler;
      ReconcileResult result;
      if (tracer == nullptr) {
        reconciler.emplace(p.initial, p.logs, options, policy);
        result = reconciler->run();
      } else {
        result = traced_run(*tracer, p, options, *policy, reconciler);
      }
      timed.stop(out);

      const Outcome& best = result.best();
      out.checks += 2;
      out.failed +=
          check_outcome(reconciler->initial_state(), reconciler->records(),
                        best);
      const SearchStats& s = result.stats;
      check_repeat(p.first,
                   {best.schedule, best.skipped, best.cost,
                    s.schedules_explored(), s.sim_steps},
                   out);
      explored += s.schedules_explored();
      sim_steps += s.sim_steps;
      to_best += s.schedules_to_best;
      preconditions += s.precondition_failures;
      clones += s.object_clones;
      avoided += s.clones_avoided;
      bytes += s.bytes_cloned;
      cutsets += s.cutset_count;
      pairs += reconciler->build_stats().pairs_evaluated;
      order_calls += reconciler->build_stats().order_calls;
      executed += best.schedule.size();
      cost += best.cost;
    }
    last_explored_ = explored;
    last_cost_ = cost;
    last_executed_ = executed;
    out.counters = {
        {"core.schedules_explored", static_cast<double>(explored), "count"},
        {"core.sim_steps", static_cast<double>(sim_steps), "count"},
        {"core.precondition_failures", static_cast<double>(preconditions),
         "count"},
        {"core.object_clones", static_cast<double>(clones), "count"},
        {"core.bytes_cloned", static_cast<double>(bytes), "bytes"},
        {"core.cutsets", static_cast<double>(cutsets), "count"},
        {"core.pairs_evaluated", static_cast<double>(pairs), "count"},
        {"core.order_calls", static_cast<double>(order_calls), "count"},
        {"schedule_cost", cost, "cost"},
    };
    out.layer = {
        {"core.schedules_to_best_ratio",
         ratio(static_cast<double>(to_best), static_cast<double>(explored)),
         "ratio"},
        {"core.clones_avoided_ratio",
         ratio(static_cast<double>(avoided),
               static_cast<double>(clones + avoided)),
         "ratio"},
    };
    if (tracer != nullptr) {
      const double dfs_s =
          tracer->self_seconds(tracer->run())["solver.dfs"];
      out.layer.push_back({"core.ns_per_sim_step",
                           ratio(dfs_s * 1e9, static_cast<double>(sim_steps)),
                           "ns"});
    }
    return out;
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::uint64_t hash = fnv1a("");
    for (const SearchProblem& p : problems_) {
      hash = digest_problem(p.initial, p.logs, hash);
    }
    return hash;
  }
  [[nodiscard]] double actions() const override {
    double n = 0.0;
    for (const SearchProblem& p : problems_) {
      n += static_cast<double>(p.actions);
    }
    return n;
  }
  [[nodiscard]] double executed_ratio() const override {
    return ratio(static_cast<double>(last_executed_), actions());
  }
  [[nodiscard]] std::vector<Metric> extra_metrics(
      double median_wall_s) const override {
    return {{"schedules_per_s",
             ratio(static_cast<double>(last_explored_), median_wall_s), "1/s"},
            {"schedule_cost", last_cost_, "cost"}};
  }

 private:
  void add(Universe initial, std::vector<Log> logs,
           std::optional<ObjectId> board) {
    SearchProblem p;
    for (const Log& log : logs) p.actions += log.size();
    p.initial = std::move(initial);
    p.logs = std::move(logs);
    p.board = board;
    problems_.push_back(std::move(p));
  }

  /// Reconciler::run() for the DFS backend, step by step through the
  /// public calls so each layer gets its own span.
  static ReconcileResult traced_run(Tracer& tracer, const SearchProblem& p,
                                    const ReconcilerOptions& options,
                                    Policy& policy,
                                    std::optional<Reconciler>& reconciler) {
    const std::uint32_t build = tracer.intern("core.build");
    const std::uint32_t cut = tracer.intern("core.cutsets");
    const std::uint32_t dfs = tracer.intern("solver.dfs");
    ReconcileResult result;
    {
      Scope span(&tracer, build);
      reconciler.emplace(p.initial, p.logs, options, &policy);
    }
    CutsetAnalysis cuts;
    {
      Scope span(&tracer, cut);
      cuts = find_proper_cutsets(reconciler->relations(), options.max_cycles,
                                 options.max_cutsets);
    }
    policy.select_cutsets(cuts.cutsets);
    result.stats.cutsets_truncated = cuts.truncated;
    result.stats.cutset_count = cuts.cutsets.size();

    const Stopwatch clock;
    const Deadline deadline =
        Deadline::after_seconds(options.limits.max_seconds);
    SolveContext ctx;
    ctx.records = &reconciler->records();
    ctx.initial = &reconciler->initial_state();
    ctx.options = &options;
    ctx.policy = &policy;
    ctx.deadline = &deadline;
    ctx.clock = &clock;
    ctx.relations = &reconciler->relations();
    ctx.cutsets = &cuts.cutsets;
    Selection selection(policy, options.keep_outcomes);
    {
      Scope span(&tracer, dfs);
      make_solver_backend(SolverKind::kDfs)
          ->solve(ctx, selection, result.stats);
    }
    result.cutsets = std::move(cuts.cutsets);
    result.outcomes = selection.take();
    return result;
  }

  std::vector<SearchProblem> problems_;
  std::uint64_t last_explored_ = 0;
  std::uint64_t last_executed_ = 0;
  double last_cost_ = 0.0;
};

// --- batch-bulk ------------------------------------------------------------

ReconcilerOptions bulk_options() {
  ReconcilerOptions options;
  options.backend = SolverKind::kGreedy;
  options.failure_mode = FailureMode::kSkipAction;
  options.threads = 1;
  return options;
}

class BatchBulk final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    workload::FagesSpec spec;
    spec.replicas = kReplicas;
    spec.tasks_per_replica = kTasksPerReplica;
    spec.shared_resources = kReplicas * kTasksPerReplica / 256;
    spec.seed = derive_seed(seed, 0xB0, 0);
    gen_ = workload::fages_workload(spec);
    first_.reset();
  }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    const ReconcilerOptions options = bulk_options();
    Policy policy;
    Outcome best;
    ConstraintBuildStats build;
    std::vector<ActionRecord> records;
    SolverGraph graph;
    std::uint64_t components = 0;

    const Section timed;
    if (tracer == nullptr) {
      Reconciler reconciler(gen_.initial, gen_.logs, options, &policy);
      ReconcileResult result = reconciler.run();
      timed.stop(out);
      best = std::move(result.outcomes.front());
      build = reconciler.build_stats();
      records = reconciler.records();
      components = result.stats.components_resolved;
    } else {
      std::size_t largest = 0;
      best = traced_run(*tracer, options, policy, records, graph, build,
                        components, largest);
      timed.stop(out);
      out.layer.push_back(
          {"solver.largest_component", static_cast<double>(largest),
           "count"});
    }

    out.checks += 2;
    out.failed += check_outcome(gen_.initial, records, best);
    check_repeat(first_, {best.schedule, best.skipped, best.cost, 0, 0}, out);
    last_executed_ = best.schedule.size();
    last_cost_ = best.cost;
    out.counters = {
        {"core.pairs_evaluated", static_cast<double>(build.pairs_evaluated),
         "count"},
        {"core.order_calls", static_cast<double>(build.order_calls), "count"},
        {"solver.components", static_cast<double>(components), "count"},
        {"schedule_cost", best.cost, "cost"},
    };
    return out;
  }

  [[nodiscard]] double actions() const override {
    return static_cast<double>(kReplicas) * kTasksPerReplica;
  }
  [[nodiscard]] std::uint64_t input_digest() const override {
    return digest_problem(gen_.initial, gen_.logs, fnv1a(""));
  }
  [[nodiscard]] double executed_ratio() const override {
    return ratio(static_cast<double>(last_executed_), actions());
  }
  [[nodiscard]] std::vector<Metric> extra_metrics(double) const override {
    return {{"schedule_cost", last_cost_, "cost"}};
  }

 private:
  static constexpr int kReplicas = 4;
  static constexpr int kTasksPerReplica = 37500;

  /// The greedy backend's sparse, component-decomposed path, one public
  /// call at a time. `records` and `graph` outlive the timed section, as
  /// the Reconciler's do on the untraced path.
  Outcome traced_run(Tracer& tracer, const ReconcilerOptions& options,
                     Policy& policy, std::vector<ActionRecord>& records,
                     SolverGraph& graph, ConstraintBuildStats& build,
                     std::uint64_t& components, std::size_t& largest) const {
    const std::uint32_t flatten_span = tracer.intern("core.flatten");
    const std::uint32_t graph_span = tracer.intern("solver.graph");
    const std::uint32_t greedy_span = tracer.intern("solver.greedy");
    const std::uint32_t components_span = tracer.intern("solver.components");
    const std::uint32_t digest_span = tracer.intern("solver.digest");
    const std::uint32_t extract_span = tracer.intern("solver.extract");
    const std::uint32_t solve_span = tracer.intern("solver.solve");
    const std::uint32_t merge_span = tracer.intern("solver.merge");

    const Universe& initial = gen_.initial;
    {
      Scope span(&tracer, flatten_span);
      records = flatten(gen_.logs);
    }
    {
      Scope span(&tracer, graph_span);
      graph = build_solver_graph(initial, records, &build);
    }
    // Everything below is GreedyBackend::solve; its self time is the glue
    // (working snapshot, outcome assembly, teardown).
    Scope greedy(&tracer, greedy_span);
    std::vector<std::vector<ActionId>> members;
    {
      Scope span(&tracer, components_span);
      members = conflict_components(records, graph);
    }
    std::uint64_t digest0 = 0;
    {
      Scope span(&tracer, digest_span);
      digest0 = universe_state_digest(initial);
    }
    const Deadline deadline;
    SearchStats stats;
    Universe working = initial.snapshot();
    std::vector<ComponentSolution> solved;
    solved.reserve(members.size());
    for (const std::vector<ActionId>& component : members) {
      largest = std::max(largest, component.size());
      std::optional<SubProblem> sub;
      {
        Scope span(&tracer, extract_span);
        sub.emplace(extract_subproblem(records, graph, component));
      }
      Scope span(&tracer, solve_span);
      solved.push_back(solve_component(*sub, initial, working, options,
                                       /*allow_moves=*/false, digest0,
                                       deadline, stats));
      sub.reset();
    }
    components = members.size();

    std::vector<ActionId> sequence;
    std::vector<RunStatus> status;
    {
      Scope span(&tracer, merge_span);
      std::vector<const ComponentSolution*> parts;
      parts.reserve(solved.size());
      for (const ComponentSolution& s : solved) parts.push_back(&s);
      merge_solutions(parts, records, sequence, status);
    }
    Outcome out;
    for (std::size_t k = 0; k < sequence.size(); ++k) {
      (status[k] == RunStatus::kExecuted ? out.schedule : out.skipped)
          .push_back(sequence[k]);
    }
    out.final_state = std::move(working);
    out.complete = true;
    out.cost = policy.cost(out);
    return out;
  }

  workload::Generated gen_;
  std::optional<Answer> first_;
  std::size_t last_executed_ = 0;
  double last_cost_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_batch_search() {
  return std::make_unique<BatchSearch>();
}
std::unique_ptr<Workload> make_batch_bulk() {
  return std::make_unique<BatchBulk>();
}

}  // namespace perfbench
