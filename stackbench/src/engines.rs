//! Bench-side likelihood engines for the clients the library's own engines
//! do not model: a stateless client that re-sends its whole evaluation
//! every time, and a client that evaluates self-contained sessions on one
//! instance or an in-process pool.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use beagle_core::{
    BeagleInstance, BufferId, Lane, Operation, PoolHandle, ScalingMode, SessionRequest,
};
use beagle_mcmc::LikelihoodEngine;
use beagle_phylo::{ReversibleModel, SitePatterns, SiteRates, Tree};

use crate::trace::now_ns;

/// The post-order schedule of `tree` with per-operation rescaling.
pub fn scaled_operations(tree: &Tree) -> Vec<Operation> {
    tree.operation_schedule()
        .iter()
        .map(|e| {
            Operation::new(e.destination, e.child1, e.matrix1, e.child2, e.matrix2)
                .with_scaling(e.destination)
        })
        .collect()
}

/// The self-contained session `beagle_mcmc::RemoteEngine` sends for one
/// evaluation, so the in-process rungs of the service ladder evaluate
/// exactly what the wire carries.
pub fn session_request(
    tree: &Tree,
    model: &ReversibleModel,
    patterns: &SitePatterns,
    rates: &SiteRates,
) -> SessionRequest {
    let eig = model.eigen();
    SessionRequest {
        tip_states: (0..tree.taxon_count())
            .map(|t| patterns.tip_states(t))
            .collect(),
        pattern_weights: patterns.weights().to_vec(),
        category_rates: rates.rates.clone(),
        category_weights: rates.weights.clone(),
        frequencies: model.frequencies().to_vec(),
        eigen: Some((
            eig.vectors.as_slice().to_vec(),
            eig.inverse_vectors.as_slice().to_vec(),
            eig.values.clone(),
        )),
        matrices: tree.branch_assignments(),
        operations: scaled_operations(tree),
        root: BufferId(tree.root()),
        scaled: true,
        deadline: None,
    }
}

/// Periodic durable checkpoints taken by a [`ResendEngine`].
pub struct Checkpointing {
    /// Evaluations between saves.
    pub every: usize,
    /// File each save overwrites.
    pub path: PathBuf,
}

/// The stateless client: every evaluation uploads the model, every
/// transition matrix and the whole operation schedule, leaving it to the
/// library's memo and eigen-cache layers to find the redundant work. Tip
/// data is uploaded once, on the first evaluation.
pub struct ResendEngine {
    instance: Box<dyn BeagleInstance>,
    patterns: SitePatterns,
    rates: SiteRates,
    tips_loaded: bool,
    evaluations: usize,
    checkpointing: Option<Checkpointing>,
    wall: Duration,
}

impl ResendEngine {
    /// Drive `instance` with the data in `patterns` and `rates`.
    pub fn new(
        instance: Box<dyn BeagleInstance>,
        patterns: SitePatterns,
        rates: SiteRates,
        checkpointing: Option<Checkpointing>,
    ) -> Self {
        Self {
            instance,
            patterns,
            rates,
            tips_loaded: false,
            evaluations: 0,
            checkpointing,
            wall: Duration::ZERO,
        }
    }

    /// Snapshot the instance with `checkpoint()` and `save()` it to `path`;
    /// returns (ns taken, bytes written). Panics if the stack has no
    /// checkpoint layer or the save fails.
    pub fn save_checkpoint(&mut self, path: &std::path::Path) -> (u64, u64) {
        let start = now_ns();
        self.instance
            .checkpoint()
            .expect("resend stack has a checkpoint layer")
            .save(path)
            .expect("checkpoint save");
        let ns = now_ns() - start;
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        (ns, bytes)
    }
}

impl LikelihoodEngine for ResendEngine {
    fn name(&self) -> String {
        format!("resend({})", self.instance.details().implementation_name)
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let start = Instant::now();
        let inst = self.instance.as_mut();
        if !self.tips_loaded {
            for tip in 0..tree.taxon_count() {
                inst.set_tip_states(tip, &self.patterns.tip_states(tip))
                    .expect("tips");
            }
            inst.set_pattern_weights(self.patterns.weights())
                .expect("pattern weights");
            inst.set_category_rates(&self.rates.rates).expect("rates");
            inst.set_category_weights(0, &self.rates.weights)
                .expect("category weights");
            self.tips_loaded = true;
        }
        let eig = model.eigen();
        inst.set_eigen_decomposition(
            0,
            eig.vectors.as_slice(),
            eig.inverse_vectors.as_slice(),
            &eig.values,
        )
        .expect("eigen");
        inst.set_state_frequencies(0, model.frequencies())
            .expect("frequencies");
        let (indices, lengths): (Vec<usize>, Vec<f64>) =
            tree.branch_assignments().into_iter().unzip();
        inst.update_transition_matrices(0, &indices, &lengths)
            .expect("matrices");
        let ops = scaled_operations(tree);
        inst.update_partials(&ops).expect("partials");
        let cumulative = inst.config().scale_buffer_count - 1;
        inst.reset_scale_factors(cumulative).expect("reset scale");
        let destinations: Vec<usize> = ops.iter().map(|o| o.destination).collect();
        inst.accumulate_scale_factors(&destinations, cumulative)
            .expect("accumulate scale");
        let lnl = inst
            .integrate_root(
                BufferId(tree.root()),
                BufferId(0),
                BufferId(0),
                ScalingMode::cumulative(cumulative),
            )
            .expect("root lnL");

        self.evaluations += 1;
        let due = self
            .checkpointing
            .as_ref()
            .filter(|c| self.evaluations.is_multiple_of(c.every))
            .map(|c| c.path.clone());
        if let Some(path) = due {
            self.save_checkpoint(&path);
        }
        self.wall += start.elapsed();
        lnl
    }

    fn elapsed(&self) -> Duration {
        self.wall
    }
}

/// Where a [`SessionEngine`] sends its sessions.
pub enum SessionTarget {
    /// `SessionRequest::evaluate` on one instance owned by the chain.
    Direct(Box<dyn BeagleInstance>),
    /// Submitted to a shared in-process pool; the chain waits for the ticket.
    Pool(PoolHandle<Box<dyn BeagleInstance>>),
}

/// Evaluates each proposal as the self-contained session a remote client
/// would send, without the wire.
pub struct SessionEngine {
    target: SessionTarget,
    patterns: SitePatterns,
    rates: SiteRates,
    wall: Duration,
}

impl SessionEngine {
    /// Sessions built from `patterns` and `rates`, evaluated on `target`.
    pub fn new(target: SessionTarget, patterns: SitePatterns, rates: SiteRates) -> Self {
        Self {
            target,
            patterns,
            rates,
            wall: Duration::ZERO,
        }
    }
}

impl LikelihoodEngine for SessionEngine {
    fn name(&self) -> String {
        "session".into()
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let start = Instant::now();
        let session = session_request(tree, model, &self.patterns, &self.rates);
        let lnl = match &mut self.target {
            SessionTarget::Direct(inst) => session.evaluate(inst.as_mut()).expect("session"),
            SessionTarget::Pool(handle) => handle
                .submit_session(Lane::Interactive, session)
                .expect("pool accepts the session")
                .wait()
                .expect("pool answers the session")
                .expect("session"),
        };
        self.wall += start.elapsed();
        lnl
    }

    fn elapsed(&self) -> Duration {
        self.wall
    }
}
