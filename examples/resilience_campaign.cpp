// The resilience-pattern ablation campaign as a CLI.
//
// Runs the full grid from src/resilience/campaign.h — scenario classes
// {clean, gray, correlated, retrystorm} x patterns {none, budget,
// rejuvenation, eviction, nmr} x seeds, plus the serial checkpoint/rollback
// sub-grid over sort and transpose — and prints the policy scorecard:
// per-cell goodput retained, gray exposure, MTTR, pattern actions, and the
// retry-storm collapse verdicts.
//
//   $ ./examples/resilience_campaign [seeds] [threads] [out_dir] [control]
//
// seeds:   seeds per grid cell (default 8; at least 1).
// threads: sweep worker threads (default FST_SWEEP_THREADS or hardware);
//          resilience_scorecard.json is byte-identical at any count — CI
//          diffs a 1-thread run against a 4-thread run.
// out_dir: where resilience_scorecard.json lands (default "."; "" skips).
//          It must already exist: the CLI exits 1 before running if not.
// control: the literal string "control" routes every pattern action through
//          the consensus-backed control plane and checks the consensus
//          invariants on top of the robustness ones.
//
// Exit status: 0 when every invariant holds AND the metastable demo holds;
// 2 otherwise. The demo is the paper's retry-storm argument made
// executable: with the retry budget disabled (pattern `none`) every storm
// cell must collapse — goodput stays under half its pre-trigger rate after
// the trigger clears — and with the budget enabled (pattern `budget`) no
// storm cell may collapse and no invariant may break.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include "src/obs/export.h"
#include "src/resilience/campaign.h"

int main(int argc, char** argv) {
  fst::ResilienceCampaignParams params;
  if (argc > 1) {
    params.seeds = std::atoi(argv[1]);
  }
  if (argc > 2) {
    params.threads = std::atoi(argv[2]);
  }
  const std::string out_dir = argc > 3 ? argv[3] : ".";
  if (argc > 4 && std::string(argv[4]) == "control") {
    params.control_plane = true;
    params.name = "resilience_control";
  }

  // Zero seeds would report every invariant as holding on no evidence;
  // atoi also reads a non-numeric count as 0.
  if (params.seeds < 1) {
    std::fprintf(stderr, "seeds must be a positive integer, got \"%s\"\n",
                 argv[1]);
    return 1;
  }

  std::error_code ec;
  if (!out_dir.empty() && !std::filesystem::is_directory(out_dir, ec)) {
    std::fprintf(stderr, "out_dir %s is not an existing directory\n",
                 out_dir.c_str());
    return 1;
  }

  std::printf(
      "resilience campaign: %d scenarios x %d patterns x %d seeds, %d nodes, "
      "%.0fs serving + %.0fs settle per cell\n\n",
      fst::kResilienceScenarios, fst::kResiliencePatterns, params.seeds,
      params.nodes, params.run_for.ToSeconds(), params.settle.ToSeconds());

  fst::ResilienceCampaignResult result;
  try {
    result = fst::RunResilienceCampaign(params);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // The ablation table: one row per (scenario, pattern), the same
  // aggregate the scorecard JSON prints.
  std::printf("  %-10s %-12s %8s %9s %8s %8s %7s %9s %5s\n", "scenario",
              "pattern", "goodput", "retained", "gray_s", "mttd_ms", "denied",
              "collapsed", "viol");
  for (int s = 0; s < fst::kResilienceScenarios; ++s) {
    for (int q = 0; q < fst::kResiliencePatterns; ++q) {
      const fst::ResilienceCellSummary r = result.Summary(s, q);
      std::printf("  %-10s %-12s %8.1f %9.3f %8.2f %8.1f %7lld %5d/%-3d %5d\n",
                  fst::ResilienceScenarioName(
                      static_cast<fst::ResilienceScenario>(s)),
                  fst::ResiliencePatternName(
                      static_cast<fst::ResiliencePattern>(q)),
                  r.goodput_per_sec, r.goodput_retained, r.gray_exposure_s,
                  r.scorecard.mttd_ms.P50(),
                  static_cast<long long>(r.denied_budget), r.collapsed,
                  r.storms, r.violations);
    }
  }

  // The metastable demonstration, spelled out per storm seed.
  const int storm = static_cast<int>(fst::ResilienceScenario::kRetryStorm);
  const int none = static_cast<int>(fst::ResiliencePattern::kNone);
  const int budget = static_cast<int>(fst::ResiliencePattern::kBudget);
  int none_collapsed = 0, budget_collapsed = 0, budget_viol = 0;
  std::printf("\nretry-storm cells (budget off -> collapse expected):\n");
  for (int i = 0; i < params.seeds; ++i) {
    const fst::ResilienceCellOutcome& o =
        result.outcomes[result.CellIndex(storm, none, i)];
    std::printf("  seed %-4llu budget=off pre %7.1f/s post %7.1f/s  %s\n",
                static_cast<unsigned long long>(o.seed), o.pre_storm_rate,
                o.post_storm_rate,
                o.collapsed ? "COLLAPSED (metastable)"
                            : "recovered (trigger below threshold)");
    none_collapsed += o.collapsed ? 1 : 0;
  }
  std::printf("retry-storm cells (budget on -> recovery expected):\n");
  for (int i = 0; i < params.seeds; ++i) {
    const fst::ResilienceCellOutcome& o =
        result.outcomes[result.CellIndex(storm, budget, i)];
    std::printf(
        "  seed %-4llu budget=on  pre %7.1f/s post %7.1f/s denied %-6lld %s\n",
        static_cast<unsigned long long>(o.seed), o.pre_storm_rate,
        o.post_storm_rate, static_cast<long long>(o.denied_budget),
        o.collapsed ? "COLLAPSED" : "recovered");
    budget_collapsed += o.collapsed ? 1 : 0;
    budget_viol += o.ok ? 0 : 1;
  }

  std::printf("\ncheckpoint/rollback (digest must match the uncrashed run at "
              "every boundary):\n");
  for (const fst::CheckpointCellOutcome& c : result.checkpoints) {
    std::printf(
        "  %-9s seed %-4llu %s overhead %5.2f%% boundaries %d crashed+ckpt "
        "%6.2fs vs no-ckpt %6.2fs\n",
        c.workload == 0 ? "sort" : "transpose",
        static_cast<unsigned long long>(c.seed), c.ok ? "ok" : "XX",
        c.overhead_pct, c.boundaries_tested, c.crashed_ckpt_s,
        c.crashed_plain_s);
  }

  std::printf("\n%d cells violated invariants\n", result.violations);
  for (const fst::ResilienceCellOutcome& o : result.outcomes) {
    if (o.ok) {
      continue;
    }
    std::printf("\n%s x %s seed %llu:\n",
                fst::ResilienceScenarioName(
                    static_cast<fst::ResilienceScenario>(o.scenario)),
                fst::ResiliencePatternName(
                    static_cast<fst::ResiliencePattern>(o.pattern)),
                static_cast<unsigned long long>(o.seed));
    for (const std::string& v : o.violations) {
      std::printf("  violation: %s\n", v.c_str());
    }
    std::printf("  scenario:\n%s", o.dsl.c_str());
  }
  for (const fst::CheckpointCellOutcome& c : result.checkpoints) {
    for (const std::string& v : c.violations) {
      std::printf("  checkpoint violation: %s\n", v.c_str());
    }
  }

  bool demo_ok = true;
  // Metastable collapse is a threshold phenomenon: a drawn trigger mild
  // enough (low surge, short window) legitimately recovers even with no
  // brake, and that control cell is part of the story. The demonstration
  // requires the *typical* storm to tip the unbraked system — at least
  // three quarters of the budget-off cells — while the braked cells must
  // never collapse, mild or severe.
  const int need = (3 * params.seeds + 3) / 4;
  if (none_collapsed < need) {
    std::printf("DEMO FAILED: only %d/%d budget-off storm cells collapsed "
                "(need %d)\n",
                none_collapsed, params.seeds, need);
    demo_ok = false;
  }
  if (budget_collapsed > 0) {
    std::printf("DEMO FAILED: %d budget-on storm cells collapsed\n",
                budget_collapsed);
    demo_ok = false;
  }
  if (budget_viol > 0) {
    std::printf("DEMO FAILED: %d budget-on storm cells violated invariants\n",
                budget_viol);
    demo_ok = false;
  }
  if (demo_ok) {
    std::printf("metastable demo: %d/%d collapsed without budget, 0 with — "
                "the token bucket is the brake\n",
                none_collapsed, params.seeds);
  }

  if (!out_dir.empty()) {
    const std::string path = out_dir + "/" + params.name + "_scorecard.json";
    if (!fst::WriteTextFile(path, result.ScorecardJson())) {
      std::fprintf(stderr, "failed writing %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return result.violations == 0 && demo_ok ? 0 : 2;
}
