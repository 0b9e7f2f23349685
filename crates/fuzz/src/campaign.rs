//! Coverage-guided campaigns: feedback, sharding, deterministic merge.
//!
//! A campaign *evolves* cases rather than iterating fixed seeds. Each
//! case carries a [`Genome`] — a generator seed plus a [`GenConfig`]
//! whose grammar weights and size knobs mutation and splicing perturb —
//! and novelty against a [`CoverageMap`] decides which genomes become
//! parents.
//!
//! # Lineages: determinism under sharding
//!
//! Naive feedback breaks shard determinism: whichever shard a case runs
//! on decides what history its feedback sees. Campaigns therefore split
//! into `lineages` **independent evolution chains**. Each lineage is a
//! sequential loop whose RNG, parent population, and coverage map are
//! strictly lineage-local, seeded from `(base_seed, lineage)` alone.
//! Shard `K` of `N` runs exactly the lineages `l` with `l % N == K`, and
//! a lineage runs identically wherever it lands — so the merged result
//! is a fold over lineages in lineage order, byte-identical for any
//! shard count and any `--jobs`. Within one shard, `--jobs` fans whole
//! lineages across the worker pool (`parallel_map` preserves order).
//!
//! Every case goes through the full differential oracle
//! ([`crate::oracle::check_case`]), whose timing stage batches the
//! scheme cells through the harness `run_cells` API; a failing case is
//! minimized by [`crate::shrink`] with its failure kind held fixed.

use crate::coverage::{CoverageMap, CoverageSignature};
use crate::distill::NovelCase;
use crate::gen::{generate, GenConfig};
use crate::oracle::check_case;
use crate::shrink;
use crate::GProgram;
use fpa_harness::cell::CellId;
use fpa_harness::engine::parallel_map;
use fpa_harness::json::Json;
use fpa_testutil::Rng;
use std::fmt;
use std::path::PathBuf;

/// One heritable case description: the generator seed and the (possibly
/// mutated) generator configuration. `generate(Rng::new(seed), &cfg)`
/// reproduces the program bit-for-bit — reports persist genomes, not
/// sources.
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    /// Generator RNG seed.
    pub seed: u64,
    /// Generator configuration (weights + size knobs).
    pub cfg: GenConfig,
}

impl Genome {
    /// Regenerates the program this genome describes.
    #[must_use]
    pub fn program(&self) -> GProgram {
        generate(&mut Rng::new(self.seed), &self.cfg)
    }

    /// JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("seed", format!("{:#x}", self.seed));
        o.set("cfg", self.cfg.to_json());
        o
    }

    /// Parses [`Genome::to_json`] output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<Genome> {
        let seed = v.get("seed")?.as_str()?;
        let seed = u64::from_str_radix(seed.strip_prefix("0x")?, 16).ok()?;
        Some(Genome {
            seed,
            cfg: GenConfig::from_json(v.get("cfg")?)?,
        })
    }
}

/// Campaign configuration. The case budget is split across `lineages`
/// independent feedback chains (see module docs), and the run may cover
/// only one shard of the campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Total case budget of the *whole* campaign (all shards).
    pub cases: u32,
    /// Base seed; lineage RNGs derive from it.
    pub base_seed: u64,
    /// Worker threads (fans lineages; never affects results).
    pub jobs: usize,
    /// Shard count of the campaign.
    pub shards: u32,
    /// This run's shard id (`0..shards`).
    pub shard_id: u32,
    /// Independent evolution chains the budget splits across.
    pub lineages: u32,
    /// Starting generator configuration of every lineage.
    pub gen: GenConfig,
    /// Unused: [`run_campaign`] never reads it, and the CLI writes
    /// reproducers from its own `--corpus` option after merging. Kept
    /// only because the benchmark builds this config with a struct
    /// literal that names the field.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            cases: 200,
            base_seed: 1,
            jobs: 1,
            shards: 1,
            shard_id: 0,
            lineages: 16,
            gen: GenConfig::default(),
            corpus_dir: None,
        }
    }
}

/// Parent-population cap per lineage.
const POPULATION_CAP: usize = 24;

/// One minimized failure, addressed by `(lineage, step)` — the shard- and
/// jobs-independent coordinates of a campaign case.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Owning lineage.
    pub lineage: u32,
    /// Step within the lineage.
    pub step: u32,
    /// Global case index (lineage-offset prefix sum + step): stable
    /// across shard counts and job counts.
    pub case: u32,
    /// Failing genome.
    pub genome: Genome,
    /// Failure kind label.
    pub kind: String,
    /// Full failure description (configuration + message).
    pub message: String,
    /// The simulation cell that diverged, if the failing stage ran one.
    pub cell: Option<CellId>,
    /// Source lines before shrinking.
    pub original_lines: usize,
    /// Source lines after shrinking.
    pub minimized_lines: usize,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
    /// Minimized source.
    pub minimized_source: String,
}

impl CampaignFailure {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("lineage", u64::from(self.lineage));
        o.set("step", u64::from(self.step));
        o.set("case", u64::from(self.case));
        o.set("genome", self.genome.to_json());
        o.set("kind", self.kind.clone());
        o.set("message", self.message.clone());
        if let Some(cell) = &self.cell {
            o.set("cell", cell.to_json());
        }
        o.set("original_lines", self.original_lines);
        o.set("minimized_lines", self.minimized_lines);
        o.set("shrink_steps", u64::from(self.shrink_steps));
        o.set("minimized_source", self.minimized_source.clone());
        o
    }

    fn from_json(v: &Json) -> Option<CampaignFailure> {
        Some(CampaignFailure {
            lineage: v.get("lineage")?.as_u64()? as u32,
            step: v.get("step")?.as_u64()? as u32,
            case: v.get("case")?.as_u64()? as u32,
            genome: Genome::from_json(v.get("genome")?)?,
            kind: v.get("kind")?.as_str()?.to_string(),
            message: v.get("message")?.as_str()?.to_string(),
            cell: v.get("cell").and_then(CellId::from_json),
            original_lines: v.get("original_lines")?.as_u64()? as usize,
            minimized_lines: v.get("minimized_lines")?.as_u64()? as usize,
            shrink_steps: v.get("shrink_steps")?.as_u64()? as u32,
            minimized_source: v.get("minimized_source")?.as_str()?.to_string(),
        })
    }
}

/// Everything one lineage produced.
#[derive(Debug, Clone)]
pub struct LineageResult {
    /// Lineage index within the campaign.
    pub lineage: u32,
    /// Cases this lineage ran.
    pub steps: u32,
    /// The lineage-local coverage map.
    pub coverage: CoverageMap,
    /// Cases whose advanced build offloaded work.
    pub offloaded_cases: u32,
    /// Augmented instructions retired across advanced runs.
    pub total_augmented: u64,
    /// Instructions retired across conventional runs.
    pub total_retired: u64,
    /// Advanced-scheme builds checked.
    pub advanced_builds: u64,
    /// Co-simulated timing runs checked.
    pub timing_checked: u64,
    /// Binaries statically linted.
    pub lint_checked: u64,
    /// Suite builds routed through the artifact-store path (one per
    /// case; shrink replays are not counted).
    pub store_requests: u64,
    /// Cases whose suite key repeated an earlier case of this lineage —
    /// deterministic cache-traffic telemetry (lineage-local by
    /// construction, so it merges identically under any shard split).
    pub store_repeats: u64,
    /// Source lines summed over all cases (for mean-lines reporting).
    pub total_lines: u64,
    /// Minimized failures, in step order.
    pub failures: Vec<CampaignFailure>,
    /// Coverage-novel cases, in step order (the live corpus; distillation
    /// input).
    pub novel: Vec<NovelCase>,
}

impl LineageResult {
    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("lineage", u64::from(self.lineage));
        o.set("steps", u64::from(self.steps));
        o.set("coverage", self.coverage.to_json());
        o.set("offloaded_cases", u64::from(self.offloaded_cases));
        o.set("total_augmented", self.total_augmented);
        o.set("total_retired", self.total_retired);
        o.set("advanced_builds", self.advanced_builds);
        o.set("timing_checked", self.timing_checked);
        o.set("lint_checked", self.lint_checked);
        o.set("store_requests", self.store_requests);
        o.set("store_repeats", self.store_repeats);
        o.set("total_lines", self.total_lines);
        o.set(
            "failures",
            self.failures
                .iter()
                .map(CampaignFailure::to_json)
                .collect::<Vec<Json>>(),
        );
        o.set(
            "novel",
            self.novel
                .iter()
                .map(NovelCase::to_json)
                .collect::<Vec<Json>>(),
        );
        o
    }

    fn from_json(v: &Json) -> Option<LineageResult> {
        let mut failures = Vec::new();
        for f in v.get("failures")?.as_arr()? {
            failures.push(CampaignFailure::from_json(f)?);
        }
        let mut novel = Vec::new();
        for n in v.get("novel")?.as_arr()? {
            novel.push(NovelCase::from_json(n)?);
        }
        Some(LineageResult {
            lineage: v.get("lineage")?.as_u64()? as u32,
            steps: v.get("steps")?.as_u64()? as u32,
            coverage: CoverageMap::from_json(v.get("coverage")?)?,
            offloaded_cases: v.get("offloaded_cases")?.as_u64()? as u32,
            total_augmented: v.get("total_augmented")?.as_u64()?,
            total_retired: v.get("total_retired")?.as_u64()?,
            advanced_builds: v.get("advanced_builds")?.as_u64()?,
            timing_checked: v.get("timing_checked")?.as_u64()?,
            lint_checked: v.get("lint_checked")?.as_u64()?,
            store_requests: v.get("store_requests")?.as_u64()?,
            store_repeats: v.get("store_repeats")?.as_u64()?,
            total_lines: v.get("total_lines")?.as_u64()?,
            failures,
            novel,
        })
    }
}

/// One shard's output: the lineage results it owned, plus enough of the
/// campaign parameters to validate a merge.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Campaign-wide case budget.
    pub cases: u32,
    /// Campaign base seed.
    pub base_seed: u64,
    /// Campaign lineage count.
    pub lineages: u32,
    /// Shard count the campaign was split into.
    pub shards: u32,
    /// This shard's id.
    pub shard_id: u32,
    /// Results of the lineages this shard ran, in lineage order.
    pub results: Vec<LineageResult>,
}

impl ShardReport {
    /// Machine-readable shard report (schema `fpa-fuzz-shard`, v2; v1
    /// lacked the per-lineage `store_*` counters).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("schema", "fpa-fuzz-shard");
        j.set("version", 2.0);
        j.set("cases", u64::from(self.cases));
        j.set("base_seed", format!("{:#x}", self.base_seed));
        j.set("lineages", u64::from(self.lineages));
        j.set("shards", u64::from(self.shards));
        j.set("shard_id", u64::from(self.shard_id));
        j.set(
            "results",
            self.results
                .iter()
                .map(LineageResult::to_json)
                .collect::<Vec<Json>>(),
        );
        j
    }

    /// Parses [`ShardReport::to_json`] output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<ShardReport> {
        if v.get("schema")?.as_str()? != "fpa-fuzz-shard" {
            return None;
        }
        let base_seed = v.get("base_seed")?.as_str()?;
        let mut results = Vec::new();
        for r in v.get("results")?.as_arr()? {
            results.push(LineageResult::from_json(r)?);
        }
        Some(ShardReport {
            cases: v.get("cases")?.as_u64()? as u32,
            base_seed: u64::from_str_radix(base_seed.strip_prefix("0x")?, 16).ok()?,
            lineages: v.get("lineages")?.as_u64()? as u32,
            shards: v.get("shards")?.as_u64()? as u32,
            shard_id: v.get("shard_id")?.as_u64()? as u32,
            results,
        })
    }
}

/// The merged view of a whole campaign. Contains **no shard metadata**:
/// it is a pure fold over lineage results in lineage order, so the same
/// campaign merged from any shard split renders byte-identically.
#[derive(Debug, Clone)]
pub struct MergedReport {
    /// Campaign-wide case budget.
    pub cases: u32,
    /// Campaign base seed.
    pub base_seed: u64,
    /// Lineage count.
    pub lineages: u32,
    /// Union coverage map.
    pub coverage: CoverageMap,
    /// Cases whose advanced build offloaded work.
    pub offloaded_cases: u32,
    /// Augmented instructions retired across advanced runs.
    pub total_augmented: u64,
    /// Instructions retired across conventional runs.
    pub total_retired: u64,
    /// Advanced-scheme builds checked.
    pub advanced_builds: u64,
    /// Co-simulated timing runs checked.
    pub timing_checked: u64,
    /// Binaries statically linted.
    pub lint_checked: u64,
    /// Suite builds routed through the artifact-store path.
    pub store_requests: u64,
    /// Requests whose suite key repeated an earlier case of the same
    /// lineage (answered by a warm store without compiling).
    pub store_repeats: u64,
    /// Mean source lines per case.
    pub mean_lines: f64,
    /// All failures, ordered by `(lineage, step)`.
    pub failures: Vec<CampaignFailure>,
    /// All coverage-novel cases, ordered by `(lineage, step)`.
    pub novel: Vec<NovelCase>,
}

impl MergedReport {
    /// True when no case diverged.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Machine-readable campaign report (schema `fpa-fuzz-report`, v3;
    /// earlier campaign reports were v2 without the `store_*` counters).
    /// Canonical: equal campaigns render byte-identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("schema", "fpa-fuzz-report");
        j.set("version", 3.0);
        j.set("cases", u64::from(self.cases));
        j.set("base_seed", format!("{:#x}", self.base_seed));
        j.set("lineages", u64::from(self.lineages));
        j.set("coverage_features", self.coverage.len());
        j.set("coverage", self.coverage.to_json());
        j.set("offloaded_cases", u64::from(self.offloaded_cases));
        j.set("total_augmented", self.total_augmented);
        j.set("total_retired", self.total_retired);
        j.set("advanced_builds", self.advanced_builds);
        j.set("timing_checked", self.timing_checked);
        j.set("lint_checked", self.lint_checked);
        j.set("store_requests", self.store_requests);
        j.set("store_repeats", self.store_repeats);
        j.set("mean_lines", self.mean_lines);
        j.set(
            "failures",
            self.failures
                .iter()
                .map(CampaignFailure::to_json)
                .collect::<Vec<Json>>(),
        );
        j.set("novel_cases", self.novel.len());
        j.set(
            "novel",
            self.novel
                .iter()
                .map(NovelCase::to_json)
                .collect::<Vec<Json>>(),
        );
        j
    }
}

/// Why a set of shard reports cannot merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError(String);

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard merge: {}", self.0)
    }
}

impl std::error::Error for MergeError {}

/// Parses a seed token: a decimal number, a `0x`-prefixed hex number,
/// or — for mnemonic seeds in CI configs, like `0xfpa2` — anything
/// else, hashed with FNV-1a to a 64-bit seed.
#[must_use]
pub fn parse_seed(s: &str) -> u64 {
    if let Ok(v) = s.parse::<u64>() {
        return v;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = u64::from_str_radix(hex, 16) {
            return v;
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives seed `case` of a `base_seed` with the formula
/// `fpa_testutil::run_cases` uses, so a case replays under either
/// harness. Campaigns seed lineage `l`'s RNG with `case_seed(base, l)`.
#[must_use]
pub fn case_seed(base_seed: u64, case: u32) -> u64 {
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(case) + 1)
}

/// Cases lineage `l` runs out of a `cases` budget over `lineages`
/// chains: an even split with the remainder spread over the lowest
/// lineage indices.
#[must_use]
pub fn lineage_steps(cases: u32, lineages: u32, l: u32) -> u32 {
    cases / lineages + u32::from(l < cases % lineages)
}

/// Global case index of `(lineage, step)`: the prefix-sum offset of the
/// lineage plus the step. Stable across shard counts and job counts.
#[must_use]
pub fn global_case(cases: u32, lineages: u32, l: u32, step: u32) -> u32 {
    (0..l)
        .map(|x| lineage_steps(cases, lineages, x))
        .sum::<u32>()
        + step
}

/// Runs one lineage: a sequential feedback loop over its case budget.
/// Deterministic in `(cfg.base_seed, cfg.cases, cfg.lineages, cfg.gen,
/// lineage)` — nothing else.
fn run_lineage(cfg: &CampaignConfig, lineage: u32) -> LineageResult {
    let steps = lineage_steps(cfg.cases, cfg.lineages, lineage);
    // The lineage RNG drives genome selection and mutation. Its seed is
    // `case_seed` keyed by lineage; generator seeds are drawn from this
    // stream rather than from the formula directly, which decorrelates
    // them from the fixed-seed cases `case_seed(base_seed, c)` names.
    let mut rng = Rng::new(case_seed(cfg.base_seed, lineage));
    // Diverse initialization: lineage 0 starts at the configured
    // generator exactly (anchoring the campaign to the default
    // generator's neighborhood); every other lineage re-samples its
    // starting configuration across the whole size/weight space, and
    // feedback refines from there.
    let base_cfg = if lineage == 0 {
        cfg.gen.clone()
    } else {
        GenConfig::explore(&mut rng)
    };
    let mut population: Vec<(Genome, CoverageSignature)> = Vec::new();
    let mut out = LineageResult {
        lineage,
        steps,
        coverage: CoverageMap::new(),
        offloaded_cases: 0,
        total_augmented: 0,
        total_retired: 0,
        advanced_builds: 0,
        timing_checked: 0,
        lint_checked: 0,
        store_requests: 0,
        store_repeats: 0,
        total_lines: 0,
        failures: Vec::new(),
        novel: Vec::new(),
    };
    // Lineage-local suite-key history: cache-traffic telemetry stays a
    // pure function of this lineage's cases, whatever shard runs it.
    let mut seen_keys: std::collections::HashSet<fpa_harness::artifact::Key> =
        std::collections::HashSet::new();

    for step in 0..steps {
        // Genome selection: fresh (lineage base config, new seed) while
        // the population warms up or with 1-in-8 odds thereafter;
        // otherwise splice two parents (1-in-4) or mutate one. Parent
        // picks are recency-biased half the time: late parents carry the
        // accumulated drift, and continuing their walk is what escapes
        // the default generator's neighborhood.
        let pick_parent = |rng: &mut Rng, n: usize| -> usize {
            if rng.bool() {
                n - 1 - rng.index(n.min(4))
            } else {
                rng.index(n)
            }
        };
        let genome = if population.is_empty() || rng.below(8) == 0 {
            Genome {
                seed: rng.next_u64(),
                cfg: base_cfg.clone(),
            }
        } else if population.len() >= 2 && rng.below(4) == 0 {
            let a = pick_parent(&mut rng, population.len());
            let mut b = rng.index(population.len() - 1);
            if b >= a {
                b += 1;
            }
            Genome {
                seed: rng.next_u64(),
                cfg: population[a].0.cfg.splice(&population[b].0.cfg, &mut rng),
            }
        } else {
            let p = pick_parent(&mut rng, population.len());
            Genome {
                seed: rng.next_u64(),
                cfg: population[p].0.cfg.mutate(&mut rng),
            }
        };

        let prog = genome.program();
        let lines = prog.source_lines();
        out.total_lines += lines as u64;
        let src = prog.render();
        out.store_requests += 1;
        if !seen_keys.insert(crate::oracle::case_store_key(&src)) {
            out.store_repeats += 1;
        }
        match check_case(&src) {
            Ok(checked) => {
                let stats = checked.stats;
                if stats.advanced_augmented > 0 {
                    out.offloaded_cases += 1;
                }
                out.total_augmented += stats.advanced_augmented;
                out.total_retired += stats.conventional_total;
                out.advanced_builds += u64::from(stats.advanced_builds);
                out.timing_checked += u64::from(stats.timing_checked);
                out.lint_checked += u64::from(stats.lint_checked);
                if out.coverage.novelty(&checked.signature) > 0 {
                    out.coverage.add(&checked.signature);
                    out.novel.push(NovelCase {
                        lineage,
                        step,
                        case: global_case(cfg.cases, cfg.lineages, lineage, step),
                        genome: genome.clone(),
                        signature: checked.signature.clone(),
                    });
                    population.push((genome, checked.signature));
                    if population.len() > POPULATION_CAP {
                        population.remove(0);
                    }
                }
            }
            Err(first) => {
                // A failure is coverage too — and an immediate parent:
                // its neighborhood is where more bugs live.
                let kind = first.kind;
                out.coverage.add(&CoverageSignature::from_failure(
                    kind.label(),
                    &first.config,
                ));
                let (min, shrink_steps) = shrink::minimize(
                    prog,
                    |q: &GProgram| matches!(crate::check_source(&q.render()), Err(f) if f.kind == kind),
                );
                let final_failure = crate::check_source(&min.render())
                    .expect_err("shrinking preserves failure kind");
                out.failures.push(CampaignFailure {
                    lineage,
                    step,
                    case: global_case(cfg.cases, cfg.lineages, lineage, step),
                    genome: genome.clone(),
                    kind: kind.label().to_string(),
                    message: final_failure.to_string(),
                    cell: final_failure.cell.clone(),
                    original_lines: lines,
                    minimized_lines: min.source_lines(),
                    shrink_steps,
                    minimized_source: min.render(),
                });
            }
        }
    }
    out
}

/// Runs this shard's lineages (`l % shards == shard_id`) and returns the
/// shard report. Deterministic: independent of `jobs`, and each lineage
/// is independent of which shard ran it.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> ShardReport {
    assert!(cfg.lineages > 0, "campaign needs at least one lineage");
    assert!(
        cfg.shard_id < cfg.shards.max(1),
        "shard id {} out of range for {} shard(s)",
        cfg.shard_id,
        cfg.shards
    );
    let mine: Vec<u32> = (0..cfg.lineages)
        .filter(|l| l % cfg.shards.max(1) == cfg.shard_id)
        .collect();
    let results = parallel_map(&mine, cfg.jobs, |&l| run_lineage(cfg, l));
    ShardReport {
        cases: cfg.cases,
        base_seed: cfg.base_seed,
        lineages: cfg.lineages,
        shards: cfg.shards.max(1),
        shard_id: cfg.shard_id,
        results,
    }
}

/// Merges shard reports into the campaign view. Validates that the
/// shards describe the same campaign and that every lineage is present
/// exactly once, then folds in lineage order — so the output is
/// byte-identical no matter how the campaign was split.
///
/// # Errors
///
/// Returns a [`MergeError`] naming the inconsistency (mixed campaign
/// parameters, missing or duplicate lineages).
pub fn merge_shards(shards: &[ShardReport]) -> Result<MergedReport, MergeError> {
    let first = shards
        .first()
        .ok_or_else(|| MergeError("no shard reports given".into()))?;
    for s in shards {
        if (s.cases, s.base_seed, s.lineages) != (first.cases, first.base_seed, first.lineages) {
            return Err(MergeError(format!(
                "shard {} describes a different campaign (cases/base_seed/lineages {}/{:#x}/{} vs {}/{:#x}/{})",
                s.shard_id, s.cases, s.base_seed, s.lineages, first.cases, first.base_seed, first.lineages
            )));
        }
    }
    let mut by_lineage: Vec<Option<&LineageResult>> = vec![None; first.lineages as usize];
    for s in shards {
        for r in &s.results {
            let slot = by_lineage
                .get_mut(r.lineage as usize)
                .ok_or_else(|| MergeError(format!("lineage {} out of range", r.lineage)))?;
            if slot.is_some() {
                return Err(MergeError(format!(
                    "lineage {} appears in more than one shard",
                    r.lineage
                )));
            }
            *slot = Some(r);
        }
    }

    let mut merged = MergedReport {
        cases: first.cases,
        base_seed: first.base_seed,
        lineages: first.lineages,
        coverage: CoverageMap::new(),
        offloaded_cases: 0,
        total_augmented: 0,
        total_retired: 0,
        advanced_builds: 0,
        timing_checked: 0,
        lint_checked: 0,
        store_requests: 0,
        store_repeats: 0,
        mean_lines: 0.0,
        failures: Vec::new(),
        novel: Vec::new(),
    };
    let mut total_lines = 0u64;
    let mut total_steps = 0u64;
    for (l, slot) in by_lineage.iter().enumerate() {
        let r = slot.ok_or_else(|| MergeError(format!("lineage {l} missing from every shard")))?;
        merged.coverage.merge(&r.coverage);
        merged.offloaded_cases += r.offloaded_cases;
        merged.total_augmented += r.total_augmented;
        merged.total_retired += r.total_retired;
        merged.advanced_builds += r.advanced_builds;
        merged.timing_checked += r.timing_checked;
        merged.lint_checked += r.lint_checked;
        merged.store_requests += r.store_requests;
        merged.store_repeats += r.store_repeats;
        total_lines += r.total_lines;
        total_steps += u64::from(r.steps);
        merged.failures.extend(r.failures.iter().cloned());
        merged.novel.extend(r.novel.iter().cloned());
    }
    merged.mean_lines = if total_steps == 0 {
        0.0
    } else {
        total_lines as f64 / total_steps as f64
    };
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_matches_testutil_formula() {
        // Keep in sync with `fpa_testutil::run_cases`: same base, same
        // case index => same rng stream.
        let base = 0xfeed;
        let seed = case_seed(base, 3);
        assert_eq!(
            seed,
            base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(4)
        );
    }

    #[test]
    fn lineage_steps_partition_the_budget() {
        for (cases, lineages) in [(500u32, 16u32), (7, 3), (3, 8), (0, 4), (16, 16)] {
            let total: u32 = (0..lineages)
                .map(|l| lineage_steps(cases, lineages, l))
                .sum();
            assert_eq!(total, cases, "budget {cases} over {lineages} lineages");
            // Remainder spreads over the lowest indices: monotone
            // non-increasing step counts.
            for l in 1..lineages {
                assert!(lineage_steps(cases, lineages, l) <= lineage_steps(cases, lineages, l - 1));
            }
        }
    }

    #[test]
    fn global_case_indices_are_dense_and_unique() {
        let (cases, lineages) = (53u32, 7u32);
        let mut seen = vec![false; cases as usize];
        for l in 0..lineages {
            for step in 0..lineage_steps(cases, lineages, l) {
                let g = global_case(cases, lineages, l, step) as usize;
                assert!(!seen[g], "case {g} assigned twice");
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "every case index covered");
    }

    #[test]
    fn genome_roundtrips_through_json() {
        let mut rng = Rng::new(7);
        let g = Genome {
            seed: 0xdead_beef_cafe_f00d,
            cfg: GenConfig::default().mutate(&mut rng).mutate(&mut rng),
        };
        let back = Genome::from_json(&g.to_json()).expect("parse");
        assert_eq!(g, back);
    }

    #[test]
    fn merge_rejects_duplicate_and_missing_lineages() {
        let mk = |lineage| LineageResult {
            lineage,
            steps: 1,
            coverage: CoverageMap::new(),
            offloaded_cases: 0,
            total_augmented: 0,
            total_retired: 0,
            advanced_builds: 0,
            timing_checked: 0,
            lint_checked: 0,
            store_requests: 0,
            store_repeats: 0,
            total_lines: 0,
            failures: Vec::new(),
            novel: Vec::new(),
        };
        let shard = |shard_id, results| ShardReport {
            cases: 2,
            base_seed: 1,
            lineages: 2,
            shards: 2,
            shard_id,
            results,
        };
        let dup = merge_shards(&[shard(0, vec![mk(0)]), shard(1, vec![mk(0)])]);
        assert!(dup.unwrap_err().to_string().contains("more than one shard"));
        let missing = merge_shards(&[shard(0, vec![mk(0)])]);
        assert!(missing.unwrap_err().to_string().contains("missing"));
        let ok = merge_shards(&[shard(0, vec![mk(0)]), shard(1, vec![mk(1)])]);
        assert!(ok.is_ok());
    }
}
