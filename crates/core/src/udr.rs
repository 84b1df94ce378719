//! The User Demand Responser (§III-D, Algorithm 5).
//!
//! Given a trained [`Dmd`] and a user's dataset: select the algorithm with
//! `SNA`, then tune *only that algorithm's* hyperparameters. The HPO
//! technique follows the paper's rule — time one configuration evaluation
//! on a small sample; cheap evaluations get the Genetic Algorithm,
//! expensive ones Bayesian Optimization (the paper's threshold is 10
//! minutes; scaled deployments pass their own).

use crate::dmd::Dmd;
use crate::error::CoreError;
use crate::fidelity::{FidelityCvObjective, InnerOptimizer};
use automodel_data::Dataset;
use automodel_hpo::{
    BatchGate, BayesianOptimization, Budget, CheckpointSink, Clock, Config, GaConfig,
    GeneticAlgorithm, Hyperband, MonotonicClock, Objective, OptOutcome, Optimizer,
    OptimizerBuilder, SearchSpace, SuccessiveHalving, TrialCache, TrialFailure, TrialOutcome,
    TrialPolicy,
};
use automodel_ml::{cross_val_accuracy, AlgorithmSpec, Registry};
use automodel_trace::{TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// The CASH answer: algorithm + hyperparameter setting (+ provenance).
#[derive(Debug, Clone)]
pub struct Solution {
    pub algorithm: String,
    pub config: Config,
    /// k-fold CV accuracy of the tuned configuration.
    pub score: f64,
    /// Which HPO technique produced it.
    pub technique: String,
    /// Configurations evaluated.
    pub trials: usize,
    /// Configurations quarantined after exhausting their trial retries.
    pub quarantined: usize,
    /// Trials served from the evaluation cache (see `AUTOMODEL_CACHE`).
    pub cache_hits: u64,
    /// Cache lookups that fell through to a live evaluation.
    pub cache_misses: u64,
}

/// The tuning objective `f(λ, SA, I)` with trial-failure reporting: an
/// evaluation error becomes a failed [`TrialOutcome`] (quarantined by the
/// optimizer) instead of silently scoring 0, and the last failure is kept so
/// an all-failed search can explain itself.
struct CvObjective<'a> {
    spec: &'a Arc<dyn AlgorithmSpec>,
    data: &'a Dataset,
    folds: usize,
    seed: u64,
    last_failure: Option<TrialFailure>,
}

impl Objective for CvObjective<'_> {
    fn evaluate(&mut self, config: &Config) -> f64 {
        self.evaluate_outcome(config).score().unwrap_or(0.0)
    }

    fn evaluate_outcome(&mut self, config: &Config) -> TrialOutcome {
        let spec = self.spec;
        let seed = self.seed;
        match cross_val_accuracy(|| spec.build(config, seed), self.data, self.folds, seed) {
            Ok(score) => TrialOutcome::from_score(score),
            Err(e) => {
                let outcome = TrialOutcome::Diverged(e.to_string());
                self.last_failure = outcome.failure();
                outcome
            }
        }
    }
}

/// UDR knobs.
#[derive(Clone)]
pub struct UdrConfig {
    /// Budget for the hyperparameter search (Algorithm 5, line 4; the user
    /// "can stop HPOAlg at any time").
    pub tuning_budget: Budget,
    /// Rows sampled for the evaluation-cost probe.
    pub probe_rows: usize,
    /// GA below this single-evaluation duration, BO above
    /// (paper: 10 minutes).
    pub eval_time_threshold: Duration,
    /// Folds of the tuning objective `f(λ, SA, I)`.
    pub cv_folds: usize,
    pub seed: u64,
    /// Time source for the evaluation-cost probe. Production uses the real
    /// [`MonotonicClock`], which times the paper's probe evaluation. Tests
    /// and the server inject a
    /// [`ManualClock`](automodel_parallel::ManualClock) so the GA-vs-BO
    /// routing decision is deterministic instead of wall-clock-dependent.
    /// A clock that does not [advance on its
    /// own](Clock::advances_on_its_own) reads the probe as zero elapsed,
    /// so UDR then skips the probe evaluation and routes on zero.
    pub probe_clock: Arc<dyn Clock>,
    /// Structured tracer: stage spans around the probe and the tuning run,
    /// plus the chosen optimizer's full event stream (default: disabled).
    pub tracer: Arc<Tracer>,
    /// Trial cache for the tuning search. A cache pre-seeded via
    /// `TrialCache::restore` warm-replays a prior (e.g. interrupted)
    /// tuning run. Default: `AUTOMODEL_CACHE` semantics.
    pub cache: Arc<TrialCache>,
    /// Crash-recovery checkpoint sink forwarded to the tuning optimizer
    /// (default: none).
    pub checkpoint: Option<Arc<dyn CheckpointSink>>,
    /// Which optimizer runs the tuning search. [`InnerOptimizer::Auto`]
    /// (the default) is the paper's probe-routed GA/BO; `Sha` and
    /// `Hyperband` skip the probe and run the multi-fidelity schedulers
    /// over row/fold/iteration-reduced evaluations instead.
    pub optimizer: InnerOptimizer,
    /// Trial fault-handling policy for the tuning optimizer. `None` (the
    /// default) reads `AUTOMODEL_FAULTS` from the environment at tune
    /// time; a server hosting many sessions in one process sets an
    /// explicit per-session policy here instead, since the environment is
    /// process-global.
    pub policy: Option<TrialPolicy>,
    /// Pre-batch admission gate forwarded to the tuning optimizer
    /// (default: none). Timing only — see [`BatchGate`].
    pub gate: Option<Arc<dyn BatchGate>>,
}

impl std::fmt::Debug for UdrConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdrConfig")
            .field("tuning_budget", &self.tuning_budget)
            .field("probe_rows", &self.probe_rows)
            .field("eval_time_threshold", &self.eval_time_threshold)
            .field("cv_folds", &self.cv_folds)
            .field("seed", &self.seed)
            .finish_non_exhaustive() // probe_clock: Arc<dyn Clock> is opaque
    }
}

impl UdrConfig {
    /// Paper-faithful thresholds (10-minute eval threshold, 10-fold CV) with
    /// an explicit tuning budget.
    pub fn paper(tuning_budget: Budget) -> UdrConfig {
        UdrConfig {
            tuning_budget,
            probe_rows: 200,
            eval_time_threshold: Duration::from_secs(600),
            cv_folds: 10,
            seed: 0,
            probe_clock: Arc::new(MonotonicClock::new()),
            tracer: Arc::new(Tracer::disabled()),
            cache: Arc::new(TrialCache::from_env_or_disabled()),
            checkpoint: None,
            optimizer: InnerOptimizer::Auto,
            policy: None,
            gate: None,
        }
    }

    /// Scaled-down defaults for tests/examples: 40 evaluations, 3-fold CV,
    /// 250 ms probe threshold.
    pub fn fast() -> UdrConfig {
        UdrConfig {
            tuning_budget: Budget::evals(40),
            probe_rows: 120,
            eval_time_threshold: Duration::from_millis(250),
            cv_folds: 3,
            seed: 0,
            probe_clock: Arc::new(MonotonicClock::new()),
            tracer: Arc::new(Tracer::disabled()),
            cache: Arc::new(TrialCache::from_env_or_disabled()),
            checkpoint: None,
            optimizer: InnerOptimizer::Auto,
            policy: None,
            gate: None,
        }
    }

    /// Attach a tracer (default: disabled).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> UdrConfig {
        self.tracer = tracer;
        self
    }

    /// Replace the tuning trial cache (restore a checkpoint snapshot
    /// into it to warm-replay an interrupted tuning run).
    pub fn with_cache(mut self, cache: Arc<TrialCache>) -> UdrConfig {
        self.cache = cache;
        self
    }

    /// Attach a crash-recovery checkpoint sink: the tuning optimizer
    /// (GA or BO, whichever the probe routes to) then persists its
    /// committed state at every batch boundary.
    pub fn with_checkpoint(mut self, sink: Arc<dyn CheckpointSink>) -> UdrConfig {
        self.checkpoint = Some(sink);
        self
    }

    /// Select the tuning optimizer explicitly (`sha` / `hyperband`
    /// replace the probe-routed GA/BO with a multi-fidelity scheduler).
    pub fn with_optimizer(mut self, optimizer: InnerOptimizer) -> UdrConfig {
        self.optimizer = optimizer;
        self
    }

    /// Set an explicit trial fault-handling policy instead of reading
    /// `AUTOMODEL_FAULTS` at tune time (the server's per-session path).
    pub fn with_policy(mut self, policy: TrialPolicy) -> UdrConfig {
        self.policy = Some(policy);
        self
    }

    /// Attach a pre-batch admission gate forwarded to the tuning
    /// optimizer (timing only; see [`BatchGate`]).
    pub fn with_gate(mut self, gate: Arc<dyn BatchGate>) -> UdrConfig {
        self.gate = Some(gate);
        self
    }

    /// The effective trial policy: the explicit override when set, the
    /// `AUTOMODEL_FAULTS` environment otherwise.
    fn effective_policy(&self) -> Result<TrialPolicy, CoreError> {
        match &self.policy {
            Some(policy) => Ok(policy.clone()),
            None => Ok(TrialPolicy::from_env()?),
        }
    }

    /// Algorithm 5 end to end.
    pub fn solve(&self, dmd: &Dmd, data: &Dataset) -> Result<Solution, CoreError> {
        let algorithm = dmd.select_algorithm(data)?;
        self.tune(&dmd.registry, &algorithm, data)
    }

    /// Lines 2–4: tune one named algorithm on the dataset. Public so the
    /// experiments can tune arbitrary algorithms (e.g. for `P(A, D)`).
    pub fn tune(
        &self,
        registry: &Registry,
        algorithm: &str,
        data: &Dataset,
    ) -> Result<Solution, CoreError> {
        let spec = registry.require(algorithm)?.clone();
        spec.check_applicable(data)?;
        let space = spec.param_space();
        let seed = self.seed;

        if self.optimizer != InnerOptimizer::Auto {
            return self.tune_multifidelity(&spec, algorithm, &space, data);
        }

        let traced = self.tracer.is_enabled();
        // Probe: time one default-config evaluation on a small sample. The
        // clock is injectable so tests can pin the GA-vs-BO decision.
        if traced {
            self.tracer.emit(TraceEvent::stage_start("udr.probe"));
        }
        let probe_time = if self.probe_clock.advances_on_its_own() {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9A0B);
            let rows = data.sample_rows(self.probe_rows, &mut rng);
            let sample = data.subset(&rows)?;
            let start = self.probe_clock.now();
            let _ = cross_val_accuracy(
                || spec.build(&spec.default_config(), seed),
                &sample,
                self.cv_folds.min(3),
                seed,
            );
            self.probe_clock.now().saturating_sub(start)
        } else {
            // A clock nobody advances reads zero across the probe, so the
            // evaluation could only be discarded: skip it.
            Duration::ZERO
        };
        let use_ga = probe_time < self.eval_time_threshold;
        let technique = if use_ga {
            "genetic-algorithm"
        } else {
            "bayesian-optimization"
        };
        if traced {
            self.tracer.emit(TraceEvent::stage_end(
                "udr.probe",
                format!("{algorithm} routed to {technique}"),
            ));
        }

        let mut objective = CvObjective {
            spec: &spec,
            data,
            folds: self.cv_folds,
            seed,
            last_failure: None,
        };
        let policy = self.effective_policy()?;
        if traced {
            self.tracer.emit(TraceEvent::stage_start("udr.tune"));
        }
        let outcome = if use_ga {
            let ga = GeneticAlgorithm::with_config(
                seed,
                GaConfig {
                    population: 12,
                    generations: 1000, // budget-bound, not generation-bound
                    ..GaConfig::default()
                },
            );
            self.wire(ga, policy)
                .optimize(&space, &mut objective, &self.tuning_budget)
        } else {
            self.wire(BayesianOptimization::new(seed), policy).optimize(
                &space,
                &mut objective,
                &self.tuning_budget,
            )
        };
        let last_failure = objective.last_failure.take();
        self.finish(&spec, algorithm, data, outcome, technique, last_failure)
    }

    /// The `sha`/`hyperband` tuning path: no evaluation-cost probe — the
    /// scheduler's fidelity ladder is the cost control — and the CV
    /// objective runs on seeded nested row subsets with scaled folds and
    /// iteration caps.
    fn tune_multifidelity(
        &self,
        spec: &Arc<dyn AlgorithmSpec>,
        algorithm: &str,
        space: &SearchSpace,
        data: &Dataset,
    ) -> Result<Solution, CoreError> {
        let seed = self.seed;
        let mut objective = FidelityCvObjective::new(spec, data, self.cv_folds, seed);
        let policy = self.effective_policy()?;
        if self.tracer.is_enabled() {
            self.tracer.emit(TraceEvent::stage_start("udr.tune"));
        }
        let outcome =
            match self.optimizer {
                InnerOptimizer::Sha => self
                    .wire(SuccessiveHalving::new(seed), policy)
                    .optimize_fidelity(space, &mut objective, &self.tuning_budget),
                InnerOptimizer::Hyperband => self
                    .wire(Hyperband::new(seed), policy)
                    .optimize_fidelity(space, &mut objective, &self.tuning_budget),
                // tune() already dispatched Auto to the probe-routed path.
                // lint:allow(no-panic-lib): `tune` only dispatches here when optimizer != Auto
                InnerOptimizer::Auto => unreachable!("auto never reaches tune_multifidelity"),
            };
        let technique = self.optimizer.to_string();
        let last_failure = objective.last_failure.take();
        self.finish(spec, algorithm, data, outcome, &technique, last_failure)
    }

    /// Attach the session-wide hooks every tuning optimizer shares: trial
    /// policy, trial cache, tracer, and the optional checkpoint sink and
    /// admission gate.
    fn wire<B: OptimizerBuilder>(&self, builder: B, policy: TrialPolicy) -> B {
        let mut builder = builder
            .with_policy(policy)
            .with_cache(Arc::clone(&self.cache))
            .with_tracer(Arc::clone(&self.tracer));
        if let Some(sink) = &self.checkpoint {
            builder = builder.with_checkpoint(Arc::clone(sink));
        }
        if let Some(gate) = &self.gate {
            builder = builder.with_gate(Arc::clone(gate));
        }
        builder
    }

    /// Close the `udr.tune` stage and turn the search outcome into the
    /// [`Solution`] credited to `technique`. A search that returned
    /// nothing is degenerate: an empty space falls back to the default
    /// configuration; otherwise either no trial ran (zero budget) or every
    /// trial failed, and the latter surfaces `last_failure`.
    fn finish(
        &self,
        spec: &Arc<dyn AlgorithmSpec>,
        algorithm: &str,
        data: &Dataset,
        outcome: Option<OptOutcome>,
        technique: &str,
        last_failure: Option<TrialFailure>,
    ) -> Result<Solution, CoreError> {
        if self.tracer.is_enabled() {
            let detail = match &outcome {
                Some(o) => format!("{algorithm} tuned over {} trials", o.trials.len()),
                None => format!("{algorithm} search returned nothing"),
            };
            self.tracer.emit(TraceEvent::stage_end("udr.tune", detail));
        }
        let solution = match outcome {
            Some(outcome) => Solution {
                algorithm: algorithm.to_string(),
                config: outcome.best_config,
                score: outcome.best_score,
                technique: technique.to_string(),
                trials: outcome.trials.len(),
                quarantined: outcome.quarantine.len(),
                cache_hits: outcome.cache.hits,
                cache_misses: outcome.cache.misses,
            },
            None if spec.param_space().is_empty() => {
                let config = spec.default_config();
                let (seed, folds) = (self.seed, self.cv_folds);
                let score = cross_val_accuracy(|| spec.build(&config, seed), data, folds, seed)?;
                Solution {
                    algorithm: algorithm.to_string(),
                    config,
                    score,
                    technique: "default".into(),
                    trials: 1,
                    quarantined: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                }
            }
            None => return Err(last_failure.map_or(CoreError::EmptySearch, CoreError::Trial)),
        };
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmd::{DmdConfig, DmdInput};
    use automodel_data::{SynthFamily, SynthSpec};
    use automodel_knowledge::CorpusSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dmd() -> Dmd {
        let corpus = CorpusSpec::small().build();
        let input = DmdInput::synthetic_from_corpus(&corpus, 60, 5);
        DmdConfig::fast().run(&input).unwrap()
    }

    #[test]
    fn udr_returns_a_tuned_solution() {
        let dmd = dmd();
        let data = SynthSpec::new("user", 120, 4, 1, 2, SynthFamily::Hyperplane, 77).generate();
        let solution = UdrConfig::fast().solve(&dmd, &data).unwrap();
        assert!(dmd.registry.get(&solution.algorithm).is_some());
        assert!(solution.score > 0.5, "score = {}", solution.score);
        assert!(solution.trials <= 40);
        assert!(
            solution.technique == "genetic-algorithm"
                || solution.technique == "bayesian-optimization"
                || solution.technique == "default"
        );
    }

    #[test]
    fn tuning_beats_or_matches_defaults() {
        let dmd = dmd();
        let data = SynthSpec::new(
            "t",
            150,
            3,
            0,
            2,
            SynthFamily::GaussianBlobs { spread: 1.5 },
            9,
        )
        .with_label_noise(0.1)
        .generate();
        let udr = UdrConfig::fast();
        let solution = udr.tune(&dmd.registry, "IBk", &data).unwrap();
        let spec = dmd.registry.get("IBk").unwrap();
        let default_score =
            cross_val_accuracy(|| spec.build(&spec.default_config(), 0), &data, 3, 0).unwrap();
        assert!(
            solution.score >= default_score - 1e-9,
            "tuned {} vs default {default_score}",
            solution.score
        );
    }

    #[test]
    fn tune_rejects_inapplicable_algorithms() {
        let registry = automodel_ml::Registry::full();
        let numeric = SynthSpec::new("n", 80, 3, 0, 2, SynthFamily::Hyperplane, 3).generate();
        let udr = UdrConfig::fast();
        let err = udr.tune(&registry, "Id3", &numeric).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Ml(automodel_ml::MlError::NotApplicable { .. })
        ));
    }

    #[test]
    fn tune_handles_empty_spaces_via_defaults() {
        let registry = automodel_ml::Registry::full();
        let data = SynthSpec::new("z", 80, 2, 0, 2, SynthFamily::Hyperplane, 4).generate();
        let mut udr = UdrConfig::fast();
        udr.tuning_budget = Budget::evals(10);
        // ZeroR has an empty hyperparameter space.
        let solution = udr.tune(&registry, "ZeroR", &data).unwrap();
        assert_eq!(solution.algorithm, "ZeroR");
        assert!(solution.score > 0.0);
    }

    #[test]
    fn sha_path_tunes_deterministically() {
        let registry = automodel_ml::Registry::fast();
        let data = SynthSpec::new("mf", 130, 3, 0, 2, SynthFamily::Hyperplane, 11).generate();
        let udr = UdrConfig::fast().with_optimizer(InnerOptimizer::Sha);
        let a = udr.tune(&registry, "IBk", &data).unwrap();
        let b = udr.tune(&registry, "IBk", &data).unwrap();
        assert_eq!(a.technique, "successive-halving");
        assert_eq!(a.config, b.config);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert!(a.trials <= 40, "trials = {}", a.trials);
        assert!(a.score > 0.5, "score = {}", a.score);
    }

    #[test]
    fn hyperband_path_tunes_deterministically() {
        let registry = automodel_ml::Registry::fast();
        let data = SynthSpec::new("hb", 130, 3, 0, 2, SynthFamily::Hyperplane, 12).generate();
        let mut udr = UdrConfig::fast().with_optimizer(InnerOptimizer::Hyperband);
        udr.tuning_budget = Budget::evals(69); // the full bracket grid
        let a = udr.tune(&registry, "IBk", &data).unwrap();
        let b = udr.tune(&registry, "IBk", &data).unwrap();
        assert_eq!(a.technique, "hyperband");
        assert_eq!(a.config, b.config);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.trials, 69);
    }

    /// Run `run` once with the served shape — a `ManualClock` probe — and
    /// once with a real clock whose threshold no probe can reach, which
    /// routes to the GA whatever the probe measures. Both must give the
    /// same solution and the same trace bytes (the default tracer stamps
    /// zero), so skipping the untimeable probe changes no answer.
    fn assert_probe_skip_is_invisible(run: impl Fn(&UdrConfig) -> Solution) {
        let traced = |clock: Arc<dyn Clock>, threshold: Duration| {
            let (tracer, trace) = Tracer::in_memory();
            let mut udr = UdrConfig::fast()
                .with_tracer(Arc::new(tracer))
                .with_cache(Arc::new(TrialCache::default()));
            udr.tuning_budget = Budget::evals(8);
            udr.probe_clock = clock;
            udr.eval_time_threshold = threshold;
            let solution = run(&udr);
            (solution, trace.contents())
        };
        let (skipped, skipped_trace) = traced(
            Arc::new(automodel_hpo::ManualClock::new()),
            UdrConfig::fast().eval_time_threshold,
        );
        let (timed, timed_trace) = traced(Arc::new(MonotonicClock::new()), Duration::MAX);
        assert_eq!(skipped.algorithm, timed.algorithm);
        assert_eq!(skipped.config, timed.config);
        assert_eq!(skipped.score.to_bits(), timed.score.to_bits());
        assert_eq!(skipped.technique, "genetic-algorithm");
        assert_eq!(skipped.technique, timed.technique);
        assert_eq!(skipped.trials, timed.trials);
        assert_eq!(skipped.quarantined, timed.quarantined);
        assert!(skipped_trace.contains("\"stage\":\"udr.probe\""));
        assert_eq!(skipped_trace, timed_trace);
    }

    #[test]
    fn skipped_probe_gives_the_timed_probe_answer() {
        let registry = automodel_ml::Registry::full();
        let data = SynthSpec::new("eq", 90, 3, 1, 2, SynthFamily::Hyperplane, 31).generate();
        for algorithm in ["IBk", "RandomForest"] {
            assert_probe_skip_is_invisible(|udr| udr.tune(&registry, algorithm, &data).unwrap());
        }
        let dmd = dmd();
        let data = SynthSpec::new(
            "eq-dmd",
            100,
            4,
            0,
            3,
            SynthFamily::GaussianBlobs { spread: 1.5 },
            32,
        )
        .generate();
        assert_probe_skip_is_invisible(|udr| udr.solve(&dmd, &data).unwrap());
    }

    /// Delegates to a real spec and counts the classifiers it builds.
    struct CountingSpec {
        inner: Arc<dyn AlgorithmSpec>,
        builds: AtomicUsize,
    }

    impl AlgorithmSpec for CountingSpec {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn family(&self) -> automodel_ml::Family {
            self.inner.family()
        }
        fn param_space(&self) -> SearchSpace {
            self.inner.param_space()
        }
        fn default_config(&self) -> Config {
            self.inner.default_config()
        }
        fn check_applicable(&self, data: &Dataset) -> Result<(), automodel_ml::MlError> {
            self.inner.check_applicable(data)
        }
        fn build(&self, config: &Config, seed: u64) -> Box<dyn automodel_ml::Classifier> {
            self.builds.fetch_add(1, Ordering::Relaxed);
            self.inner.build(config, seed)
        }
    }

    #[test]
    fn warm_tune_with_an_untimeable_probe_builds_nothing() {
        let counting = Arc::new(CountingSpec {
            inner: Arc::clone(
                automodel_ml::Registry::full()
                    .require("RandomForest")
                    .unwrap(),
            ),
            builds: Default::default(),
        });
        let mut registry = automodel_ml::Registry::new();
        registry.register(Arc::clone(&counting) as Arc<dyn AlgorithmSpec>);
        let data = SynthSpec::new("warm", 80, 3, 0, 2, SynthFamily::Hyperplane, 33).generate();
        let mut udr = UdrConfig::fast().with_cache(Arc::new(TrialCache::default()));
        udr.tuning_budget = Budget::evals(6);
        udr.eval_time_threshold = Duration::MAX;
        let builds = |udr: &UdrConfig| {
            counting.builds.swap(0, Ordering::Relaxed);
            let solution = udr.tune(&registry, "RandomForest", &data).unwrap();
            assert_eq!(solution.technique, "genetic-algorithm");
            counting.builds.swap(0, Ordering::Relaxed)
        };

        // Cold, with a real clock: the probe plus every trial's folds.
        let cold = builds(&udr);
        // Warm, with a real clock: every trial is a cache hit, and only
        // the paper's timed probe builds (one classifier per fold).
        let warm_timed = builds(&udr);
        assert_eq!(warm_timed, udr.cv_folds.min(3));
        assert!(cold > warm_timed, "cold {cold} vs warm {warm_timed}");
        // Warm, with a clock nobody advances: the probe is skipped too.
        udr.probe_clock = Arc::new(automodel_hpo::ManualClock::new());
        assert_eq!(builds(&udr), 0);
    }

    #[test]
    fn forced_bo_path_works() {
        let dmd = dmd();
        let data = SynthSpec::new("bo", 100, 3, 0, 2, SynthFamily::Hyperplane, 5).generate();
        let mut udr = UdrConfig::fast();
        // A never-advancing clock reads the probe as 0 elapsed; with a zero
        // threshold `0 < 0` fails, so BO is forced deterministically (no
        // dependence on how fast the probe really ran).
        udr.probe_clock = Arc::new(automodel_hpo::ManualClock::new());
        udr.eval_time_threshold = Duration::ZERO;
        udr.tuning_budget = Budget::evals(15);
        let solution = udr.tune(&dmd.registry, "IBk", &data).unwrap();
        assert_eq!(solution.technique, "bayesian-optimization");
    }
}
