//! # ufilter-fuzz — grammar-based differential fuzzing
//!
//! Seeded generators for schemas+data ([`gen_schema`]), view queries
//! ([`gen_view`]), update statements ([`gen_update`]) and raw wire frames
//! ([`gen_wire`]), a blind execute-recompute differential oracle
//! ([`oracle`]) that cross-checks four check surfaces byte-for-byte and
//! validates accepted updates against the paper's Definition 1 rectangle,
//! a routing-agreement stage ([`route_stage`]) holding the shared path
//! trie to the linear-walk oracle's exact `Route`, greedy counterexample
//! shrinking ([`shrink`]), a replayable corpus format ([`corpus`]) and the
//! plain STAR marking that cross-checks the production one
//! ([`star_reference`]).
//!
//! Everything is a pure function of a `u64` seed; a failure message's seed
//! reproduces the exact plan anywhere. See `docs/FUZZING.md` for the
//! grammars, the oracle's soundness argument, and reproduction recipes.

pub mod corpus;
pub mod gen_schema;
pub mod gen_update;
pub mod gen_view;
pub mod gen_wire;
pub mod oracle;
pub mod rng;
pub mod route_stage;
pub mod shrink;
pub mod star_reference;

pub use oracle::{run_raw, run_seed, Divergence, OracleOptions, Plan, RawPlan, RunStats, Surface};
pub use rng::FuzzRng;
pub use route_stage::{run_route_many, RouteStats};

/// A fuzz-run failure: the divergence, plus the minimized plan and the
/// corpus rendering that reproduces it without the generator.
pub struct Failure {
    pub divergence: Divergence,
    pub minimized: RawPlan,
    pub corpus: String,
}

/// Run seeded plans starting at `base_seed` until at least `min_cases`
/// (view, update) pairs have been cross-checked. On the first divergence,
/// shrink it and return the minimized, replayable counterexample.
pub fn run_many(
    base_seed: u64,
    min_cases: usize,
    opts: &OracleOptions,
) -> Result<RunStats, Box<Failure>> {
    let mut stats = RunStats::default();
    let mut seed = base_seed;
    while stats.cases < min_cases {
        let plan = Plan::generate(seed);
        match run_raw(&plan.raw(), opts) {
            Ok(s) => stats.merge(&s),
            Err(div) => {
                let (small, small_div) = shrink::shrink(plan, div, opts, 200);
                let minimized = small.raw();
                let corpus = corpus::render(
                    &minimized,
                    &format!("kind: {}\ndetail: {}", small_div.kind, small_div.detail),
                );
                return Err(Box::new(Failure { divergence: small_div, minimized, corpus }));
            }
        }
        seed += 1;
    }
    Ok(stats)
}

/// The `UFILTER_FUZZ_CASES` knob: minimum number of (view, update) cases a
/// smoke run must cover. Defaults to `default` when unset or unparseable.
pub fn cases_from_env(default: usize) -> usize {
    std::env::var("UFILTER_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}
