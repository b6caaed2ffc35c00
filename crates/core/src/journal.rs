//! The replayable state journal and the one wrapper that keeps it.
//!
//! The BEAGLE API is a flat buffer machine, so the client-visible state of
//! an instance is exactly the sequence of `set_*` / `update_*` calls that
//! produced it. [`StateJournal`] records the *latest* value of every such
//! input (last write wins per buffer index) and can replay them — whole, or
//! sliced to a pattern sub-range — into a fresh instance.
//!
//! Replay order is: tip data → pattern weights → frequencies → category
//! rates/weights → eigen systems → direct matrices → matrix updates →
//! partials operations → scale-factor accumulation. Operations are replayed
//! in the order of their last execution, with superseded writes to the same
//! destination dropped. This reconstructs the final buffer state for the
//! standard BEAGLE client pattern (descendants updated before ancestors);
//! clients that interleave reads with partial rewrites of the same
//! destination would need full-history replay, which no caller does.
//!
//! # The journaling layer
//!
//! [`JournaledInstance`] is the only wrapper of a managed, non-partitioned
//! instance that keeps a journal. The manager installs it outermost,
//! above any operation queue, whenever the spec asks for numerical rescue
//! or for checkpoints, and it records every mutating call the client
//! makes. The journal then serves both:
//!
//! * **Numerical rescue** (`spec.rescue`). Deep trees and many rate
//!   categories underflow partials, and an unscaled root or edge
//!   integration then yields NaN, −∞ or
//!   [`crate::BeagleError::NumericalFailure`]. The wrapper re-runs the
//!   journaled traversal with per-destination rescaling, accumulates the
//!   factors into a reserved cumulative buffer (the last scale index), and
//!   integrates again before surfacing any error. This needs one scale
//!   buffer per internal destination plus the reserved slot, which
//!   [`crate::InstanceConfig::for_tree`] provides. Because the journal also
//!   sees `set_partials`, a buffer the client overwrote is never recomputed.
//! * **Checkpoints** (`spec.checkpoint`).
//!   [`BeagleInstance::checkpoint`] snapshots the journal with the sizing
//!   and provenance as a durable [`Checkpoint`]. Without `spec.checkpoint`
//!   it answers `None`.
//!
//! [`crate::multi::PartitionedInstance`] keeps its own full-problem
//! journal, because its failover replays pattern slices of it into
//! rebuilt children.

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::checkpoint::{Checkpoint, Provenance};
use crate::error::{BeagleError, Result};
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;
use crate::spec::InstanceSpec;
use std::collections::BTreeMap;

/// One eigen system as recorded: `(vectors, inverse_vectors, values)`.
type EigenRecord = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Recorded state of one logical instance, sufficient to rebuild it.
#[derive(Clone, Debug, Default)]
pub struct StateJournal {
    tip_states: BTreeMap<usize, Vec<u32>>,
    /// `patterns × states` per tip (as passed by the client).
    tip_partials: BTreeMap<usize, Vec<f64>>,
    /// Full `categories × patterns × states` buffers set directly.
    partials: BTreeMap<usize, Vec<f64>>,
    pattern_weights: Option<Vec<f64>>,
    frequencies: BTreeMap<usize, Vec<f64>>,
    category_rates: Option<Vec<f64>>,
    category_weights: BTreeMap<usize, Vec<f64>>,
    /// `(vectors, inverse_vectors, values)` per eigen buffer.
    eigens: BTreeMap<usize, EigenRecord>,
    /// Matrices set directly via `set_transition_matrix`.
    matrices: BTreeMap<usize, Vec<f64>>,
    /// Matrices computed from an eigen system: index → (eigen, branch
    /// length). A direct `set_transition_matrix` to the same index clears
    /// the entry (and vice versa), so exactly one source is replayed.
    matrix_updates: BTreeMap<usize, (usize, f64)>,
    /// Partials operations in last-execution order, deduplicated by
    /// destination buffer.
    ops: Vec<Operation>,
    /// Cumulative scale buffer → scale indices accumulated into it since its
    /// last reset.
    scale_accumulations: BTreeMap<usize, Vec<usize>>,
}

impl StateJournal {
    /// Fresh, empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `set_tip_states`.
    pub fn record_tip_states(&mut self, tip: usize, states: &[u32]) {
        self.tip_states.insert(tip, states.to_vec());
        self.tip_partials.remove(&tip);
    }

    /// Record `set_tip_partials`.
    pub fn record_tip_partials(&mut self, tip: usize, partials: &[f64]) {
        self.tip_partials.insert(tip, partials.to_vec());
        self.tip_states.remove(&tip);
    }

    /// Record `set_partials`.
    pub fn record_partials(&mut self, buffer: usize, partials: &[f64]) {
        self.partials.insert(buffer, partials.to_vec());
        // A direct write supersedes any computed value for this buffer.
        self.ops.retain(|op| op.destination != buffer);
    }

    /// Record `set_pattern_weights`.
    pub fn record_pattern_weights(&mut self, weights: &[f64]) {
        self.pattern_weights = Some(weights.to_vec());
    }

    /// Record `set_state_frequencies`.
    pub fn record_frequencies(&mut self, index: usize, frequencies: &[f64]) {
        self.frequencies.insert(index, frequencies.to_vec());
    }

    /// Record `set_category_rates`.
    pub fn record_category_rates(&mut self, rates: &[f64]) {
        self.category_rates = Some(rates.to_vec());
    }

    /// Record `set_category_weights`.
    pub fn record_category_weights(&mut self, index: usize, weights: &[f64]) {
        self.category_weights.insert(index, weights.to_vec());
    }

    /// Record `set_eigen_decomposition`.
    pub fn record_eigen(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) {
        self.eigens.insert(
            index,
            (vectors.to_vec(), inverse_vectors.to_vec(), values.to_vec()),
        );
    }

    /// Record `set_transition_matrix`.
    pub fn record_matrix(&mut self, index: usize, matrix: &[f64]) {
        self.matrices.insert(index, matrix.to_vec());
        self.matrix_updates.remove(&index);
    }

    /// Record `update_transition_matrices`.
    pub fn record_matrix_updates(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) {
        for (&m, &t) in matrix_indices.iter().zip(branch_lengths) {
            self.matrix_updates.insert(m, (eigen_index, t));
            self.matrices.remove(&m);
        }
    }

    /// Record `update_partials`: each operation supersedes any earlier
    /// write to the same destination.
    pub fn record_operations(&mut self, operations: &[Operation]) {
        for op in operations {
            self.ops.retain(|o| o.destination != op.destination);
            self.partials.remove(&op.destination);
            self.ops.push(*op);
        }
    }

    /// Record `reset_scale_factors`.
    pub fn record_scale_reset(&mut self, cumulative: usize) {
        self.scale_accumulations.insert(cumulative, Vec::new());
    }

    /// Record `accumulate_scale_factors`.
    pub fn record_scale_accumulation(&mut self, scale_indices: &[usize], cumulative: usize) {
        self.scale_accumulations
            .entry(cumulative)
            .or_default()
            .extend_from_slice(scale_indices);
    }

    /// The recorded operations, in replay order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }

    /// The last recorded full-problem pattern weights, if any were set.
    /// The partitioned parent reads these to recompute the global
    /// log-likelihood reduction in pattern order (see
    /// `PartitionedInstance::integrate_root`).
    pub fn pattern_weights(&self) -> Option<&[f64]> {
        self.pattern_weights.as_deref()
    }

    /// Serialize the journal as text lines into `out` (one record per
    /// line). `f64` values are written as 16-digit hex bit patterns, so a
    /// decoded journal replays **bit-exactly** — the property the durable
    /// checkpoint format ([`crate::checkpoint`]) is built on.
    pub fn encode_into(&self, out: &mut String) {
        use std::fmt::Write;
        fn f64s(out: &mut String, values: &[f64]) {
            for v in values {
                let _ = write!(out, " {:016x}", v.to_bits());
            }
        }
        for (tip, states) in &self.tip_states {
            let _ = write!(out, "tip_states {tip} {}", states.len());
            for s in states {
                let _ = write!(out, " {s}");
            }
            out.push('\n');
        }
        for (tip, partials) in &self.tip_partials {
            let _ = write!(out, "tip_partials {tip} {}", partials.len());
            f64s(out, partials);
            out.push('\n');
        }
        for (buffer, partials) in &self.partials {
            let _ = write!(out, "partials {buffer} {}", partials.len());
            f64s(out, partials);
            out.push('\n');
        }
        if let Some(w) = &self.pattern_weights {
            let _ = write!(out, "pattern_weights {}", w.len());
            f64s(out, w);
            out.push('\n');
        }
        for (i, f) in &self.frequencies {
            let _ = write!(out, "frequencies {i} {}", f.len());
            f64s(out, f);
            out.push('\n');
        }
        if let Some(r) = &self.category_rates {
            let _ = write!(out, "category_rates {}", r.len());
            f64s(out, r);
            out.push('\n');
        }
        for (i, w) in &self.category_weights {
            let _ = write!(out, "category_weights {i} {}", w.len());
            f64s(out, w);
            out.push('\n');
        }
        for (i, (v, iv, ev)) in &self.eigens {
            let _ = write!(out, "eigen {i} {} {} {}", v.len(), iv.len(), ev.len());
            f64s(out, v);
            f64s(out, iv);
            f64s(out, ev);
            out.push('\n');
        }
        for (i, m) in &self.matrices {
            let _ = write!(out, "matrix {i} {}", m.len());
            f64s(out, m);
            out.push('\n');
        }
        for (m, (eigen, t)) in &self.matrix_updates {
            let _ = writeln!(out, "matrix_update {m} {eigen} {:016x}", t.to_bits());
        }
        for op in &self.ops {
            let scale = match op.dest_scale_write {
                Some(s) => s.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "op {} {scale} {} {} {} {}",
                op.destination, op.child1, op.child1_matrix, op.child2, op.child2_matrix
            );
        }
        for (cumulative, indices) in &self.scale_accumulations {
            let _ = write!(out, "scale_acc {cumulative} {}", indices.len());
            for i in indices {
                let _ = write!(out, " {i}");
            }
            out.push('\n');
        }
    }

    /// Rebuild a journal from lines produced by [`Self::encode_into`].
    /// Errors are strings ([`Checkpoint::decode`] wraps them into
    /// [`crate::BeagleError::CheckpointCorrupt`]).
    pub fn decode_lines(lines: &[&str]) -> std::result::Result<Self, String> {
        fn parse<T: std::str::FromStr>(
            tok: Option<&str>,
            what: &str,
        ) -> std::result::Result<T, String> {
            tok.ok_or_else(|| format!("journal line truncated at {what}"))?
                .parse::<T>()
                .map_err(|_| format!("bad {what} field"))
        }
        fn take_f64s<'t>(
            toks: &mut impl Iterator<Item = &'t str>,
            n: usize,
            what: &str,
        ) -> std::result::Result<Vec<f64>, String> {
            (0..n)
                .map(|_| {
                    let tok = toks
                        .next()
                        .ok_or_else(|| format!("journal line truncated at {what}"))?;
                    u64::from_str_radix(tok, 16)
                        .map(f64::from_bits)
                        .map_err(|_| format!("bad {what} bit pattern"))
                })
                .collect()
        }
        let mut j = StateJournal::new();
        for line in lines {
            let mut t = line.split_ascii_whitespace();
            let Some(tag) = t.next() else { continue };
            match tag {
                "tip_states" => {
                    let tip: usize = parse(t.next(), "tip")?;
                    let n: usize = parse(t.next(), "tip_states length")?;
                    let states: Vec<u32> = (0..n)
                        .map(|_| parse(t.next(), "tip state"))
                        .collect::<std::result::Result<_, _>>()?;
                    j.tip_states.insert(tip, states);
                }
                "tip_partials" => {
                    let tip: usize = parse(t.next(), "tip")?;
                    let n: usize = parse(t.next(), "tip_partials length")?;
                    j.tip_partials
                        .insert(tip, take_f64s(&mut t, n, "tip partials")?);
                }
                "partials" => {
                    let buffer: usize = parse(t.next(), "buffer")?;
                    let n: usize = parse(t.next(), "partials length")?;
                    j.partials.insert(buffer, take_f64s(&mut t, n, "partials")?);
                }
                "pattern_weights" => {
                    let n: usize = parse(t.next(), "pattern_weights length")?;
                    j.pattern_weights = Some(take_f64s(&mut t, n, "pattern weights")?);
                }
                "frequencies" => {
                    let i: usize = parse(t.next(), "frequency index")?;
                    let n: usize = parse(t.next(), "frequencies length")?;
                    j.frequencies
                        .insert(i, take_f64s(&mut t, n, "frequencies")?);
                }
                "category_rates" => {
                    let n: usize = parse(t.next(), "category_rates length")?;
                    j.category_rates = Some(take_f64s(&mut t, n, "category rates")?);
                }
                "category_weights" => {
                    let i: usize = parse(t.next(), "category-weight index")?;
                    let n: usize = parse(t.next(), "category_weights length")?;
                    j.category_weights
                        .insert(i, take_f64s(&mut t, n, "category weights")?);
                }
                "eigen" => {
                    let i: usize = parse(t.next(), "eigen index")?;
                    let nv: usize = parse(t.next(), "eigen vectors length")?;
                    let niv: usize = parse(t.next(), "eigen inverse length")?;
                    let nev: usize = parse(t.next(), "eigen values length")?;
                    let v = take_f64s(&mut t, nv, "eigen vectors")?;
                    let iv = take_f64s(&mut t, niv, "eigen inverse vectors")?;
                    let ev = take_f64s(&mut t, nev, "eigen values")?;
                    j.eigens.insert(i, (v, iv, ev));
                }
                "matrix" => {
                    let i: usize = parse(t.next(), "matrix index")?;
                    let n: usize = parse(t.next(), "matrix length")?;
                    j.matrices.insert(i, take_f64s(&mut t, n, "matrix")?);
                }
                "matrix_update" => {
                    let m: usize = parse(t.next(), "matrix index")?;
                    let eigen: usize = parse(t.next(), "eigen index")?;
                    let bits = t.next().ok_or("journal line truncated at branch length")?;
                    let t_val = u64::from_str_radix(bits, 16)
                        .map(f64::from_bits)
                        .map_err(|_| "bad branch-length bit pattern".to_string())?;
                    j.matrix_updates.insert(m, (eigen, t_val));
                }
                "op" => {
                    let destination: usize = parse(t.next(), "op destination")?;
                    let scale_tok = t.next().ok_or("journal line truncated at op scale")?;
                    let dest_scale_write = if scale_tok == "-" {
                        None
                    } else {
                        Some(scale_tok.parse().map_err(|_| "bad op scale field")?)
                    };
                    let child1: usize = parse(t.next(), "op child1")?;
                    let child1_matrix: usize = parse(t.next(), "op child1 matrix")?;
                    let child2: usize = parse(t.next(), "op child2")?;
                    let child2_matrix: usize = parse(t.next(), "op child2 matrix")?;
                    j.ops.push(Operation {
                        destination,
                        dest_scale_write,
                        child1,
                        child1_matrix,
                        child2,
                        child2_matrix,
                    });
                }
                "scale_acc" => {
                    let cumulative: usize = parse(t.next(), "cumulative scale buffer")?;
                    let n: usize = parse(t.next(), "scale_acc length")?;
                    let indices: Vec<usize> = (0..n)
                        .map(|_| parse(t.next(), "scale index"))
                        .collect::<std::result::Result<_, _>>()?;
                    j.scale_accumulations.insert(cumulative, indices);
                }
                other => return Err(format!("unknown journal record \"{other}\"")),
            }
            if t.next().is_some() {
                return Err(format!("trailing data on journal record \"{tag}\""));
            }
        }
        Ok(j)
    }

    /// Replay the journal into `target`, restricted to the pattern range
    /// `[p0, p1)` of the original instance whose full configuration was
    /// `full`. Pattern-indexed data (tips, weights, direct partials) is
    /// sliced; model parameters and operations replay whole. With
    /// `(0, full.pattern_count)` this rebuilds a same-sized instance.
    pub fn replay_slice(
        &self,
        target: &mut dyn BeagleInstance,
        full: &InstanceConfig,
        p0: usize,
        p1: usize,
    ) -> Result<()> {
        let s = full.state_count;
        for (&tip, states) in &self.tip_states {
            target.set_tip_states(tip, &states[p0..p1])?;
        }
        for (&tip, partials) in &self.tip_partials {
            target.set_tip_partials(tip, &partials[p0 * s..p1 * s])?;
        }
        for (&buffer, data) in &self.partials {
            // Slice each category's pattern block out of the full buffer.
            let mut sub = Vec::with_capacity(full.category_count * (p1 - p0) * s);
            for c in 0..full.category_count {
                let base = (c * full.pattern_count + p0) * s;
                sub.extend_from_slice(&data[base..base + (p1 - p0) * s]);
            }
            target.set_partials(buffer, &sub)?;
        }
        if let Some(w) = &self.pattern_weights {
            target.set_pattern_weights(&w[p0..p1])?;
        }
        for (&i, f) in &self.frequencies {
            target.set_state_frequencies(i, f)?;
        }
        if let Some(r) = &self.category_rates {
            target.set_category_rates(r)?;
        }
        for (&i, w) in &self.category_weights {
            target.set_category_weights(i, w)?;
        }
        for (&i, (v, iv, ev)) in &self.eigens {
            target.set_eigen_decomposition(i, v, iv, ev)?;
        }
        for (&i, m) in &self.matrices {
            target.set_transition_matrix(i, m)?;
        }
        for (&m, &(eigen, t)) in &self.matrix_updates {
            target.update_transition_matrices(eigen, &[m], &[t])?;
        }
        if !self.ops.is_empty() {
            target.update_partials(&self.ops)?;
        }
        for (&cumulative, indices) in &self.scale_accumulations {
            target.reset_scale_factors(cumulative)?;
            if !indices.is_empty() {
                target.accumulate_scale_factors(indices, cumulative)?;
            }
        }
        Ok(())
    }
}

/// The journaling wrapper the manager installs when a spec asks for
/// numerical rescue or checkpoints (see the module docs). It records every
/// mutating call in the instance's [`StateJournal`] and otherwise forwards
/// calls unchanged, so wrapping is semantically invisible until an unscaled
/// integration fails or a snapshot is requested.
pub struct JournaledInstance {
    inner: Box<dyn BeagleInstance>,
    journal: StateJournal,
    rescue: bool,
    /// Sizing and provenance written into snapshots; `None` unless the spec
    /// asked for checkpoints.
    snapshot: Option<(InstanceConfig, Provenance)>,
    pub(crate) recorder: Recorder,
}

impl JournaledInstance {
    /// Wrap `inner`, created from `spec`, journaling from a clean slate.
    pub(crate) fn new(inner: Box<dyn BeagleInstance>, spec: &InstanceSpec) -> Self {
        Self::with_journal(inner, spec, StateJournal::new())
    }

    /// Wrap `inner`, whose state `journal` already describes (the restore
    /// path: a snapshot's journal, replayed into `inner`).
    pub(crate) fn with_journal(
        inner: Box<dyn BeagleInstance>,
        spec: &InstanceSpec,
        journal: StateJournal,
    ) -> Self {
        let snapshot = spec.checkpoint.then(|| {
            let provenance = Provenance {
                preferences: spec.preferences,
                requirements: spec.requirements,
                rescue: spec.rescue,
                implementation: spec.implementation.clone(),
            };
            (spec.config, provenance)
        });
        // Journal obs events iff the wrapped instance is recording.
        let recorder = Recorder::new(inner.statistics().is_some());
        Self {
            inner,
            journal,
            rescue: spec.rescue,
            snapshot,
            recorder,
        }
    }

    /// The reserved cumulative scale buffer, if the configuration leaves
    /// room for rescue: every recorded destination needs its own scale
    /// buffer below the reserved one.
    fn rescue_cumulative(&self) -> Option<usize> {
        let reserved = self.inner.config().scale_buffer_count.checked_sub(1)?;
        let ops = self.journal.operations();
        (reserved > 0 && !ops.is_empty() && ops.iter().all(|op| op.destination < reserved))
            .then_some(reserved)
    }

    /// Run `integrate` with the client's `scaling`. When rescue is on and an
    /// unscaled integration fails numerically, re-run the journaled
    /// traversal with per-destination rescaling, accumulate the factors
    /// into the reserved cumulative buffer, and integrate again against it.
    /// `what` names the integration in events and errors.
    fn integrate_rescued(
        &mut self,
        scaling: ScalingMode,
        what: impl Fn() -> String,
        integrate: impl Fn(&mut dyn BeagleInstance, ScalingMode) -> Result<f64>,
    ) -> Result<f64> {
        let first = integrate(self.inner.as_mut(), scaling);
        let failed = match &first {
            Ok(v) => !v.is_finite(),
            Err(e) => matches!(e, BeagleError::NumericalFailure(_)),
        };
        if !self.rescue || scaling != ScalingMode::None || !failed {
            return first;
        }
        let Some(cumulative) = self.rescue_cumulative() else {
            return first;
        };
        let ops = self.journal.operations();
        self.recorder.event(EventKind::RescueTriggered, || {
            format!("{} failed numerically; rescaling {} ops", what(), ops.len())
        });
        let scaled: Vec<Operation> = ops
            .iter()
            .map(|op| op.with_scaling(op.destination))
            .collect();
        let indices: Vec<usize> = scaled.iter().map(|op| op.destination).collect();
        self.inner.update_partials(&scaled)?;
        self.inner.reset_scale_factors(cumulative)?;
        self.inner.accumulate_scale_factors(&indices, cumulative)?;
        let rescued = integrate(self.inner.as_mut(), ScalingMode::cumulative(cumulative))?;
        if !rescued.is_finite() {
            return Err(BeagleError::NumericalFailure(format!(
                "{}: log-likelihood {rescued} even after automatic rescaling",
                what()
            )));
        }
        self.recorder.event(EventKind::RescueSucceeded, || {
            format!("{}: log-likelihood {rescued} after rescaling", what())
        });
        Ok(rescued)
    }
}

impl BeagleInstance for JournaledInstance {
    fn wrapped(&self) -> Option<&dyn BeagleInstance> {
        Some(self.inner.as_ref())
    }

    fn wrapped_mut(&mut self) -> Option<&mut dyn BeagleInstance> {
        Some(self.inner.as_mut())
    }

    fn details(&self) -> &InstanceDetails {
        self.inner.details()
    }

    fn config(&self) -> &InstanceConfig {
        self.inner.config()
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.journal.record_tip_states(tip, states);
        self.inner.set_tip_states(tip, states)
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.journal.record_tip_partials(tip, partials);
        self.inner.set_tip_partials(tip, partials)
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.journal.record_partials(buffer, partials);
        self.inner.set_partials(buffer, partials)
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.inner.get_partials(buffer)
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.journal.record_pattern_weights(weights);
        self.inner.set_pattern_weights(weights)
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.journal.record_frequencies(index, frequencies);
        self.inner.set_state_frequencies(index, frequencies)
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.journal.record_category_rates(rates);
        self.inner.set_category_rates(rates)
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.journal.record_category_weights(index, weights);
        self.inner.set_category_weights(index, weights)
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.journal
            .record_eigen(index, vectors, inverse_vectors, values);
        self.inner
            .set_eigen_decomposition(index, vectors, inverse_vectors, values)
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.journal
            .record_matrix_updates(eigen_index, matrix_indices, branch_lengths);
        self.inner
            .update_transition_matrices(eigen_index, matrix_indices, branch_lengths)
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        // Derivative matrices are scratch outputs for branch optimization;
        // replay needs only the primary matrices.
        self.journal
            .record_matrix_updates(eigen_index, matrix_indices, branch_lengths);
        self.inner.update_transition_derivatives(
            eigen_index,
            matrix_indices,
            d1_indices,
            d2_indices,
            branch_lengths,
        )
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.journal.record_matrix(index, matrix);
        self.inner.set_transition_matrix(index, matrix)
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.inner.get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        self.journal.record_operations(operations);
        self.inner.update_partials(operations)
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        self.journal.record_scale_reset(cumulative);
        self.inner.reset_scale_factors(cumulative)
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        self.journal
            .record_scale_accumulation(scale_indices, cumulative);
        self.inner
            .accumulate_scale_factors(scale_indices, cumulative)
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.integrate_rescued(
            scaling,
            || format!("root integration at buffer {root}"),
            |inner, scaling| inner.integrate_root(root, category_weights, frequencies, scaling),
        )
    }

    fn integrate_edge(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.integrate_rescued(
            scaling,
            || format!("edge integration {parent}->{child}"),
            |inner, scaling| {
                inner.integrate_edge(
                    parent,
                    child,
                    matrix,
                    category_weights,
                    frequencies,
                    scaling,
                )
            },
        )
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        self.inner.get_site_log_likelihoods()
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        let mut stats = self.inner.statistics()?;
        if let Some(own) = self.recorder.stats() {
            stats.merge(&own);
        }
        Some(stats)
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        obs::merge_journals(self.inner.take_journal(), self.recorder.take_journal())
    }

    fn checkpoint(&mut self) -> Option<Checkpoint> {
        // An inner operation queue flushes its pending work on this forward.
        // Nothing below keeps a journal, so its own answer is always `None`.
        self.inner.checkpoint();
        let (config, provenance) = self.snapshot.as_ref()?;
        let journal = &self.journal;
        self.recorder.event(EventKind::CheckpointSaved, || {
            format!(
                "config={}x{} ops={}",
                config.tip_count,
                config.pattern_count,
                journal.operations().len()
            )
        });
        Some(Checkpoint {
            config: *config,
            provenance: provenance.clone(),
            journal: journal.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(dest: usize, c1: usize, c2: usize) -> Operation {
        Operation::new(dest, c1, c1, c2, c2)
    }

    #[test]
    fn operations_dedupe_by_destination() {
        let mut j = StateJournal::new();
        j.record_operations(&[op(4, 0, 1), op(5, 2, 3)]);
        j.record_operations(&[op(4, 1, 2)]);
        let dests: Vec<usize> = j.operations().iter().map(|o| o.destination).collect();
        assert_eq!(
            dests,
            vec![5, 4],
            "superseded write dropped, order = last execution"
        );
        assert_eq!(j.operations()[1].child1, 1, "latest operands kept");
    }

    #[test]
    fn direct_partials_supersede_operations_and_vice_versa() {
        let mut j = StateJournal::new();
        j.record_operations(&[op(4, 0, 1)]);
        j.record_partials(4, &[1.0; 16]);
        assert!(j.operations().is_empty());
        j.record_operations(&[op(4, 0, 1)]);
        assert_eq!(j.operations().len(), 1);
        assert!(j.partials.is_empty());
    }

    #[test]
    fn matrix_sources_are_exclusive() {
        let mut j = StateJournal::new();
        j.record_matrix_updates(0, &[3], &[0.1]);
        j.record_matrix(3, &[0.25; 16]);
        assert!(j.matrix_updates.is_empty());
        j.record_matrix_updates(0, &[3], &[0.2]);
        assert!(j.matrices.is_empty());
        assert_eq!(j.matrix_updates[&3], (0, 0.2));
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let mut j = StateJournal::new();
        j.record_tip_states(0, &[0, 3, u32::MAX]);
        j.record_tip_partials(1, &[0.25, 1e-300, -0.0]);
        j.record_partials(4, &[std::f64::consts::PI, 2.0_f64.sqrt()]);
        j.record_pattern_weights(&[1.0, 2.0, 3.0]);
        j.record_frequencies(0, &[0.1, 0.2, 0.3, 0.4]);
        j.record_category_rates(&[0.5, 1.5]);
        j.record_category_weights(0, &[0.5, 0.5]);
        j.record_eigen(0, &[1.0; 4], &[2.0; 4], &[-0.5, 0.5]);
        j.record_matrix(3, &[0.25; 4]);
        j.record_matrix_updates(0, &[5], &[0.123456789]);
        j.record_operations(&[op(6, 0, 1), op(7, 6, 2).with_scaling(7)]);
        j.record_scale_accumulation(&[6, 7], 9);

        let mut text = String::new();
        j.encode_into(&mut text);
        let lines: Vec<&str> = text.lines().collect();
        let back = StateJournal::decode_lines(&lines).unwrap();

        let mut text2 = String::new();
        back.encode_into(&mut text2);
        assert_eq!(text, text2, "round trip must be bit-exact");
        assert_eq!(back.operations(), j.operations());
        assert_eq!(back.tip_partials[&1], j.tip_partials[&1]);
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(StateJournal::decode_lines(&["bogus 1 2"]).is_err());
        assert!(StateJournal::decode_lines(&["tip_states 0 3 1 2"]).is_err());
        assert!(StateJournal::decode_lines(&["pattern_weights 1 zz"]).is_err());
        assert!(
            StateJournal::decode_lines(&["tip_states 0 1 7 extra"]).is_err(),
            "trailing tokens are corruption, not noise"
        );
        assert!(StateJournal::decode_lines(&[])
            .unwrap()
            .operations()
            .is_empty());
    }

    use crate::flags::Flags;
    use std::sync::{Arc, Mutex};

    /// A back-end whose unscaled root integration underflows to −∞ and
    /// which logs every partials write, computed (`op:`) or direct (`set:`).
    struct Underflowing {
        details: InstanceDetails,
        config: InstanceConfig,
        writes: Arc<Mutex<Vec<String>>>,
    }

    impl BeagleInstance for Underflowing {
        fn details(&self) -> &InstanceDetails {
            &self.details
        }
        fn config(&self) -> &InstanceConfig {
            &self.config
        }
        fn set_tip_states(&mut self, _: usize, _: &[u32]) -> Result<()> {
            Ok(())
        }
        fn set_tip_partials(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_partials(&mut self, buffer: usize, _: &[f64]) -> Result<()> {
            self.writes.lock().unwrap().push(format!("set:{buffer}"));
            Ok(())
        }
        fn get_partials(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn set_pattern_weights(&mut self, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_state_frequencies(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_category_rates(&mut self, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_category_weights(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_eigen_decomposition(
            &mut self,
            _: usize,
            _: &[f64],
            _: &[f64],
            _: &[f64],
        ) -> Result<()> {
            Ok(())
        }
        fn update_transition_matrices(&mut self, _: usize, _: &[usize], _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_transition_matrix(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn get_transition_matrix(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
            let mut writes = self.writes.lock().unwrap();
            writes.extend(operations.iter().map(|o| format!("op:{}", o.destination)));
            Ok(())
        }
        fn reset_scale_factors(&mut self, _: usize) -> Result<()> {
            Ok(())
        }
        fn accumulate_scale_factors(&mut self, _: &[usize], _: usize) -> Result<()> {
            Ok(())
        }
        fn integrate_root(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            scaling: ScalingMode,
        ) -> Result<f64> {
            Ok(if scaling == ScalingMode::None {
                f64::NEG_INFINITY
            } else {
                -42.0
            })
        }
        fn integrate_edge(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            Ok(-42.0)
        }
        fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
            Ok(vec![])
        }
    }

    /// Rescue re-runs only the operations whose results the client still
    /// holds: a buffer overwritten by `set_partials` after its operation
    /// ran keeps the client's data.
    #[test]
    fn rescue_never_recomputes_a_buffer_the_client_overwrote() {
        let config = InstanceConfig::for_tree(4, 10, 4, 1);
        let writes = Arc::new(Mutex::new(Vec::new()));
        let mock = Underflowing {
            details: InstanceDetails {
                implementation_name: "mock".into(),
                resource_name: "mock".into(),
                flags: Flags::NONE,
                thread_count: 1,
            },
            config,
            writes: writes.clone(),
        };
        let spec = InstanceSpec::with_config(config);
        let mut inst = JournaledInstance::new(Box::new(mock), &spec);
        inst.update_partials(&[op(4, 0, 1), op(5, 4, 2)]).unwrap();
        inst.set_partials(4, &[0.5; 40]).unwrap();
        let lnl = inst
            .integrate_root(BufferId(5), BufferId(0), BufferId(0), ScalingMode::None)
            .unwrap();
        assert_eq!(lnl, -42.0, "the rescued, scaled integration answers");
        assert_eq!(
            *writes.lock().unwrap(),
            ["op:4", "op:5", "set:4", "op:5"],
            "the rescue re-run touches destination 5 only"
        );
    }

    #[test]
    fn scale_reset_clears_accumulation() {
        let mut j = StateJournal::new();
        j.record_scale_accumulation(&[1, 2], 9);
        j.record_scale_reset(9);
        j.record_scale_accumulation(&[3], 9);
        assert_eq!(j.scale_accumulations[&9], vec![3]);
    }
}
