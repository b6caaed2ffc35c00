//! The replayable state journal and the two layers that keep it.
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
//! # The journaling layers
//!
//! Exactly two layers keep a journal, one per logical instance:
//! [`JournaledInstance`] over a managed single instance (the manager
//! installs it outermost whenever the spec asks for numerical rescue or for
//! checkpoints), and [`crate::multi::PartitionedInstance`] over the children
//! it splits the patterns across, which it creates without one. Both
//! implement `Journaling`, which holds what they share, written once:
//!
//! * **The recording rule** (`Journaling::forward`). Every mutating call
//!   goes to the layer below as one `Call` value, and is recorded only if
//!   that layer accepted it: returned `Ok`, or failed by a fault
//!   ([`crate::BeagleError::fault`]), which a rebuild must replay. A
//!   rejected call leaves no trace, so it cannot poison a later replay.
//! * **Numerical rescue** (`spec.rescue`,
//!   `Journaling::integrate_rescued`). Deep trees and many rate
//!   categories underflow partials, and an unscaled root or edge
//!   integration then yields NaN, −∞ or
//!   [`crate::BeagleError::NumericalFailure`]. The layer re-runs the
//!   journaled traversal below with per-destination rescaling, accumulates
//!   the factors into a reserved cumulative buffer (the last scale index),
//!   and integrates again before surfacing any error. Until the next
//!   partials or scale write, unscaled integrations read the rescaled
//!   partials against that buffer. This needs one scale buffer per internal
//!   destination plus the reserved slot, which
//!   [`crate::InstanceConfig::for_tree`] provides. Because the journal also
//!   sees `set_partials`, a buffer the client overwrote is never recomputed.
//!
//! [`BeagleInstance::checkpoint`] snapshots the journal with the sizing and
//! provenance as a durable [`Checkpoint`]: [`JournaledInstance`] does when
//! the spec asks for checkpoints (`spec.checkpoint`), and the partitioned
//! instance always does, since its failover replays pattern slices of the
//! same journal into rebuilt children.

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::checkpoint::{Checkpoint, Provenance};
use crate::error::{BeagleError, Result};
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;
use crate::spec::InstanceSpec;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::slice::from_ref;

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

    /// Record an accepted `call`: last write wins per buffer index, and a
    /// write to a buffer drops whatever other source the journal held for
    /// it (tip states vs tip partials, direct vs computed partials, direct
    /// vs computed matrices). Only [`Journaling::forward`] records, so the
    /// journal holds exactly the calls the layer below accepted.
    pub(crate) fn record(&mut self, call: &Call) {
        match *call {
            Call::TipStates(tip, states) => {
                self.tip_states.insert(tip, states.to_vec());
                self.tip_partials.remove(&tip);
            }
            Call::TipPartials(tip, partials) => {
                self.tip_partials.insert(tip, partials.to_vec());
                self.tip_states.remove(&tip);
            }
            Call::Partials(buffer, partials) => {
                self.partials.insert(buffer, partials.to_vec());
                self.ops.retain(|op| op.destination != buffer);
            }
            Call::PatternWeights(weights) => self.pattern_weights = Some(weights.to_vec()),
            Call::Frequencies(index, frequencies) => {
                self.frequencies.insert(index, frequencies.to_vec());
            }
            Call::CategoryRates(rates) => self.category_rates = Some(rates.to_vec()),
            Call::CategoryWeights(index, weights) => {
                self.category_weights.insert(index, weights.to_vec());
            }
            Call::Eigen(index, vectors, inverse_vectors, values) => {
                let record = (vectors.to_vec(), inverse_vectors.to_vec(), values.to_vec());
                self.eigens.insert(index, record);
            }
            Call::Matrix(index, matrix) => {
                self.matrices.insert(index, matrix.to_vec());
                self.matrix_updates.remove(&index);
            }
            // Derivative matrices are scratch outputs for branch
            // optimization; replay needs only the primary matrices.
            Call::MatrixUpdates(eigen, matrices, lengths, _) => {
                for (&m, &t) in matrices.iter().zip(lengths) {
                    self.matrix_updates.insert(m, (eigen, t));
                    self.matrices.remove(&m);
                }
            }
            // The last write per destination wins, in last-execution order.
            Call::Operations(operations) => {
                // (destination, position of its last write in this call),
                // local to the call: a faulted call is recorded unchecked.
                let mut last: Vec<(usize, Reverse<usize>)> = operations
                    .iter()
                    .enumerate()
                    .map(|(i, op)| (op.destination, Reverse(i)))
                    .collect();
                last.sort_unstable();
                last.dedup_by_key(|w| w.0);
                let find = |d: usize| last.binary_search_by_key(&d, |w| w.0);
                self.ops.retain(|o| find(o.destination).is_err());
                for (i, op) in operations.iter().enumerate() {
                    if find(op.destination).is_ok_and(|k| last[k].1 == Reverse(i)) {
                        self.partials.remove(&op.destination);
                        self.ops.push(*op);
                    }
                }
            }
            Call::ScaleReset(cumulative) => {
                self.scale_accumulations.insert(cumulative, Vec::new());
            }
            Call::ScaleAccumulation(indices, cumulative) => self
                .scale_accumulations
                .entry(cumulative)
                .or_default()
                .extend_from_slice(indices),
        }
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
            let scale = op.dest_scale_write.map_or("-".into(), |s| s.to_string());
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
                    let t_val = take_f64s(&mut t, 1, "branch length")?[0];
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

    /// The recorded state as the calls that rebuild it, in replay order.
    fn calls(&self) -> Vec<Call<'_>> {
        let scale = self.scale_accumulations.iter().flat_map(|(&c, indices)| {
            let accumulate = (!indices.is_empty()).then_some(Call::ScaleAccumulation(indices, c));
            std::iter::once(Call::ScaleReset(c)).chain(accumulate)
        });
        (self.tip_states.iter().map(|(&t, s)| Call::TipStates(t, s)))
            .chain(
                self.tip_partials
                    .iter()
                    .map(|(&t, p)| Call::TipPartials(t, p)),
            )
            .chain(self.partials.iter().map(|(&b, p)| Call::Partials(b, p)))
            .chain(self.pattern_weights.as_deref().map(Call::PatternWeights))
            .chain(
                self.frequencies
                    .iter()
                    .map(|(&i, f)| Call::Frequencies(i, f)),
            )
            .chain(self.category_rates.as_deref().map(Call::CategoryRates))
            .chain(
                self.category_weights
                    .iter()
                    .map(|(&i, w)| Call::CategoryWeights(i, w)),
            )
            .chain(
                self.eigens
                    .iter()
                    .map(|(&i, (v, iv, e))| Call::Eigen(i, v, iv, e)),
            )
            .chain(self.matrices.iter().map(|(&i, m)| Call::Matrix(i, m)))
            .chain(
                self.matrix_updates.iter().map(|(m, (eigen, t))| {
                    Call::MatrixUpdates(*eigen, from_ref(m), from_ref(t), None)
                }),
            )
            .chain((!self.ops.is_empty()).then_some(Call::Operations(&self.ops)))
            .chain(scale)
            .collect()
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
        self.calls()
            .iter()
            .try_for_each(|call| call.apply(target, full, (p0, p1)))
    }
}

/// One mutating call of the BEAGLE API as a value: what a journaling layer
/// forwards to the layer below ([`Self::apply`]), records once it is
/// accepted ([`StateJournal::record`]) and replays.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Call<'a> {
    TipStates(usize, &'a [u32]),
    TipPartials(usize, &'a [f64]),
    Partials(usize, &'a [f64]),
    PatternWeights(&'a [f64]),
    Frequencies(usize, &'a [f64]),
    CategoryRates(&'a [f64]),
    CategoryWeights(usize, &'a [f64]),
    Eigen(usize, &'a [f64], &'a [f64], &'a [f64]),
    Matrix(usize, &'a [f64]),
    /// `update_transition_matrices(eigen, matrices, lengths)`, or with the
    /// first- and second-derivative buffers `update_transition_derivatives`.
    MatrixUpdates(
        usize,
        &'a [usize],
        &'a [f64],
        Option<(&'a [usize], &'a [usize])>,
    ),
    Operations(&'a [Operation]),
    ScaleReset(usize),
    ScaleAccumulation(&'a [usize], usize),
}

impl Call<'_> {
    /// Run the call on `target`, which holds the patterns `[p0, p1)` of an
    /// instance sized `full`. Over all of `full`'s patterns every payload
    /// goes down unchanged, for `target` to check; over a sub-range a
    /// pattern-indexed payload must cover all of `full`'s patterns, and
    /// `target` gets its slice.
    pub(crate) fn apply(
        &self,
        target: &mut dyn BeagleInstance,
        full: &InstanceConfig,
        (p0, p1): (usize, usize),
    ) -> Result<()> {
        let (n, s) = (full.pattern_count, full.state_count);
        let whole = (p0, p1) == (0, n);
        // The part of a payload with `per` values per pattern that `target`
        // gets, checked to span all of `full`'s patterns when it is cut.
        let cut = |what, per: usize, got: usize| match (whole, got == n * per) {
            (true, _) => Ok(0..got),
            (false, true) => Ok(p0 * per..p1 * per),
            (false, false) => Err(BeagleError::DimensionMismatch {
                what,
                expected: n * per,
                got,
            }),
        };
        match *self {
            Call::TipStates(tip, states) => {
                target.set_tip_states(tip, &states[cut("tip states", 1, states.len())?])
            }
            Call::TipPartials(tip, partials) => {
                let range = cut("tip partials", s, partials.len())?;
                target.set_tip_partials(tip, &partials[range])
            }
            Call::Partials(buffer, partials) if whole => target.set_partials(buffer, partials),
            Call::Partials(buffer, partials) => {
                cut("partials", full.category_count * s, partials.len())?;
                // Each category's block of patterns, cut to the range.
                let sub: Vec<f64> = (0..full.category_count)
                    .flat_map(|c| &partials[(c * n + p0) * s..(c * n + p1) * s])
                    .copied()
                    .collect();
                target.set_partials(buffer, &sub)
            }
            Call::PatternWeights(weights) => {
                target.set_pattern_weights(&weights[cut("pattern weights", 1, weights.len())?])
            }
            Call::Frequencies(index, frequencies) => {
                target.set_state_frequencies(index, frequencies)
            }
            Call::CategoryRates(rates) => target.set_category_rates(rates),
            Call::CategoryWeights(index, weights) => target.set_category_weights(index, weights),
            Call::Eigen(index, vectors, inverse_vectors, values) => {
                target.set_eigen_decomposition(index, vectors, inverse_vectors, values)
            }
            Call::Matrix(index, matrix) => target.set_transition_matrix(index, matrix),
            Call::MatrixUpdates(eigen, matrices, lengths, None) => {
                target.update_transition_matrices(eigen, matrices, lengths)
            }
            Call::MatrixUpdates(eigen, matrices, lengths, Some((d1, d2))) => {
                target.update_transition_derivatives(eigen, matrices, d1, d2, lengths)
            }
            Call::Operations(operations) => target.update_partials(operations),
            Call::ScaleReset(cumulative) => target.reset_scale_factors(cumulative),
            Call::ScaleAccumulation(indices, cumulative) => {
                target.accumulate_scale_factors(indices, cumulative)
            }
        }
    }
}

/// What a journaling layer keeps for its logical instance: the journal,
/// the state of numerical rescue, and the recorder that narrates both.
pub(crate) struct Ledger {
    pub(crate) journal: StateJournal,
    /// Rescue numerically failed unscaled integrations (`spec.rescue`).
    pub(crate) rescue: bool,
    /// The reserved cumulative scale buffer while the partials the last
    /// rescue rescaled are live: until the next recorded partials or scale
    /// write (or a rebuild from the journal), an unscaled integration reads
    /// rescaled partials and must add this buffer's factors back.
    pub(crate) rescued: Option<usize>,
    pub(crate) recorder: Recorder,
}

/// One mutating call as the layer below a journal sees it: run on an
/// instance that holds the given pattern range.
pub(crate) type BelowCall<'c> =
    dyn Fn(&mut dyn BeagleInstance, (usize, usize)) -> Result<()> + Sync + 'c;

/// A layer that keeps the journal of one logical instance:
/// [`JournaledInstance`] over one instance, and
/// [`crate::multi::PartitionedInstance`] over its children. An
/// implementation says how a call reaches the layer below; the recording
/// rule ([`Self::forward`]) and numerical rescue
/// ([`Self::integrate_rescued`]) are written once, here.
pub(crate) trait Journaling: BeagleInstance {
    /// The journal, rescue state and recorder this layer keeps.
    fn ledger(&mut self) -> &mut Ledger;

    /// Run `call` on every instance below, unrecorded; `concurrent` marks
    /// work heavy enough to run on every device at once.
    fn below(&mut self, concurrent: bool, call: &BelowCall) -> Result<()>;

    /// Run `integrate` on every instance below and reduce the total.
    fn integrate_below(
        &mut self,
        integrate: &dyn Fn(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64>;

    /// Forward `call` to the layer below, and record it if that layer
    /// accepted it: returned `Ok`, or failed by a fault
    /// ([`BeagleError::fault`]), which a rebuild must replay. A rejected
    /// call leaves no trace, so it cannot poison a later replay. This is the
    /// one place that decides what the journal holds.
    fn forward(&mut self, call: Call) -> Result<()> {
        let full = *self.config();
        let concurrent = matches!(call, Call::Operations(_));
        let result = self.below(concurrent, &|inst, range| call.apply(inst, &full, range));
        if result.as_ref().err().is_none_or(|e| e.fault().is_some()) {
            let ledger = self.ledger();
            if matches!(
                call,
                Call::Partials(..)
                    | Call::Operations(_)
                    | Call::ScaleReset(_)
                    | Call::ScaleAccumulation(..)
            ) {
                ledger.rescued = None;
            }
            ledger.journal.record(&call);
        }
        result
    }

    /// Run `integrate` with the client's `scaling`. When rescue is on and an
    /// unscaled integration fails numerically, re-run the journaled
    /// traversal below with per-destination rescaling, accumulate the
    /// factors into the reserved cumulative buffer, and integrate again
    /// against it; until the next partials or scale write, unscaled
    /// integrations keep using that buffer. `what` names the integration in
    /// events and errors.
    fn integrate_rescued(
        &mut self,
        scaling: ScalingMode,
        what: &dyn Fn() -> String,
        integrate: &dyn Fn(&mut dyn BeagleInstance, ScalingMode) -> Result<f64>,
    ) -> Result<f64> {
        let scale_buffers = self.config().scale_buffer_count;
        let rescued = self
            .ledger()
            .rescued
            .filter(|_| scaling == ScalingMode::None);
        let live = rescued.map_or(scaling, ScalingMode::cumulative);
        let first = self.integrate_below(&|inst| integrate(inst, live));
        let failed = first.as_ref().map_or_else(
            |e| matches!(e, BeagleError::NumericalFailure(_)),
            |v| !v.is_finite(),
        );
        let ledger = self.ledger();
        if !ledger.rescue || scaling != ScalingMode::None || !failed {
            return first;
        }
        // Every recorded destination needs its own scale buffer below the
        // reserved one, the last.
        let ops = ledger.journal.operations();
        let reserved = scale_buffers.saturating_sub(1);
        if reserved == 0 || ops.is_empty() || ops.iter().any(|op| op.destination >= reserved) {
            return first;
        }
        let scaled: Vec<_> = ops
            .iter()
            .map(|op| op.with_scaling(op.destination))
            .collect();
        let indices: Vec<_> = scaled.iter().map(|op| op.destination).collect();
        let what = what();
        let n = scaled.len();
        let recorder = &mut ledger.recorder;
        recorder.event(EventKind::RescueTriggered, || {
            format!("{what} failed numerically; rescaling {n} ops")
        });
        self.below(true, &|inst, _| {
            inst.update_partials(&scaled)?;
            inst.reset_scale_factors(reserved)?;
            inst.accumulate_scale_factors(&indices, reserved)
        })?;
        self.ledger().rescued = Some(reserved);
        let rescued =
            self.integrate_below(&|inst| integrate(inst, ScalingMode::cumulative(reserved)))?;
        if !rescued.is_finite() {
            return Err(BeagleError::NumericalFailure(format!(
                "{what}: log-likelihood {rescued} even after automatic rescaling"
            )));
        }
        let done = || format!("{what}: log-likelihood {rescued} after rescaling");
        self.ledger()
            .recorder
            .event(EventKind::RescueSucceeded, done);
        Ok(rescued)
    }
}

/// The mutating calls and integrations of [`BeagleInstance`], written once
/// for both journaling layers: each call goes through
/// [`Journaling::forward`], each integration through
/// [`Journaling::integrate_rescued`].
macro_rules! journaled_calls {
    () => {
        fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
            self.forward(Call::TipStates(tip, states))
        }

        fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
            self.forward(Call::TipPartials(tip, partials))
        }

        fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
            self.forward(Call::Partials(buffer, partials))
        }

        fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
            self.forward(Call::PatternWeights(weights))
        }

        fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
            self.forward(Call::Frequencies(index, frequencies))
        }

        fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
            self.forward(Call::CategoryRates(rates))
        }

        fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
            self.forward(Call::CategoryWeights(index, weights))
        }

        fn set_eigen_decomposition(
            &mut self,
            index: usize,
            vectors: &[f64],
            inverse_vectors: &[f64],
            values: &[f64],
        ) -> Result<()> {
            self.forward(Call::Eigen(index, vectors, inverse_vectors, values))
        }

        fn update_transition_matrices(
            &mut self,
            eigen_index: usize,
            matrix_indices: &[usize],
            branch_lengths: &[f64],
        ) -> Result<()> {
            self.forward(Call::MatrixUpdates(
                eigen_index,
                matrix_indices,
                branch_lengths,
                None,
            ))
        }

        fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
            self.forward(Call::Matrix(index, matrix))
        }

        fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
            self.forward(Call::Operations(operations))
        }

        fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
            self.forward(Call::ScaleReset(cumulative))
        }

        fn accumulate_scale_factors(
            &mut self,
            scale_indices: &[usize],
            cumulative: usize,
        ) -> Result<()> {
            self.forward(Call::ScaleAccumulation(scale_indices, cumulative))
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
                &|| format!("root integration at buffer {root}"),
                &|inner, scaling| {
                    inner.integrate_root(root, category_weights, frequencies, scaling)
                },
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
                &|| format!("edge integration {parent}->{child}"),
                &|inner, scaling| {
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
    };
}
pub(crate) use journaled_calls;

/// The journaling wrapper the manager installs when a spec asks for
/// numerical rescue or checkpoints (see the module docs). It forwards every
/// call unchanged and records the mutating ones the instance accepted, so
/// wrapping is semantically invisible until an unscaled integration fails
/// or a snapshot is requested.
pub struct JournaledInstance {
    inner: Box<dyn BeagleInstance>,
    pub(crate) ledger: Ledger,
    /// Sizing and provenance written into snapshots; `None` unless the spec
    /// asked for checkpoints.
    snapshot: Option<(InstanceConfig, Provenance)>,
}

impl JournaledInstance {
    /// Wrap `inner`, created from `spec`, whose state `journal` describes:
    /// an empty journal for a fresh instance, or on the restore path a
    /// snapshot's journal, replayed into `inner`.
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
            ledger: Ledger {
                journal,
                rescue: spec.rescue,
                rescued: None,
                recorder,
            },
            snapshot,
        }
    }
}

impl Journaling for JournaledInstance {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn below(&mut self, _concurrent: bool, call: &BelowCall) -> Result<()> {
        let patterns = self.inner.config().pattern_count;
        call(self.inner.as_mut(), (0, patterns))
    }

    fn integrate_below(
        &mut self,
        integrate: &dyn Fn(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64> {
        integrate(self.inner.as_mut())
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

    journaled_calls!();

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.inner.get_partials(buffer)
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.forward(Call::MatrixUpdates(
            eigen_index,
            matrix_indices,
            branch_lengths,
            Some((d1_indices, d2_indices)),
        ))
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.inner.get_transition_matrix(index)
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        self.inner.get_site_log_likelihoods()
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        let mut stats = self.inner.statistics()?;
        if let Some(own) = self.ledger.recorder.stats() {
            stats.merge(&own);
        }
        Some(stats)
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        obs::merge_journals(
            self.inner.take_journal(),
            self.ledger.recorder.take_journal(),
        )
    }

    fn checkpoint(&mut self) -> Option<Checkpoint> {
        let (config, provenance) = self.snapshot.as_ref()?;
        let journal = &self.ledger.journal;
        self.ledger.recorder.event(EventKind::CheckpointSaved, || {
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
        j.record(&Call::Operations(&[op(4, 0, 1), op(5, 2, 3)]));
        j.record(&Call::Operations(&[op(4, 1, 2)]));
        let dests: Vec<usize> = j.operations().iter().map(|o| o.destination).collect();
        assert_eq!(
            dests,
            vec![5, 4],
            "superseded write dropped, order = last execution"
        );
        assert_eq!(j.operations()[1].child1, 1, "latest operands kept");
    }

    /// `record` keeps the per-operation rule (drop every earlier write to
    /// the destination, then append) over calls that repeat a destination
    /// inside one call, rewrite destinations of earlier calls, and meet a
    /// `set_partials` in between.
    #[test]
    fn operations_record_keeps_the_per_operation_rule() {
        fn per_op(ops: &mut Vec<Operation>, partials: &mut Vec<usize>, call: &[Operation]) {
            for op in call {
                ops.retain(|o| o.destination != op.destination);
                partials.retain(|&b| b != op.destination);
                ops.push(*op);
            }
        }
        let calls: [&[Operation]; 4] = [
            &[
                op(4, 0, 1),
                op(5, 2, 3),
                op(6, 4, 5),
                op(4, 1, 2),
                op(7, 6, 4),
            ],
            &[op(5, 0, 3), op(8, 7, 5), op(5, 1, 3), op(5, 2, 2)],
            &[],
            &[op(9, 8, 4), op(6, 5, 9), op(4, 3, 3), op(6, 4, 1)],
        ];
        let (mut j, mut ops, mut partials) = (StateJournal::new(), Vec::new(), Vec::new());
        for (k, call) in calls.iter().enumerate() {
            if k == 2 {
                j.record(&Call::Partials(5, &[1.0; 16]));
                ops.retain(|o: &Operation| o.destination != 5);
                partials.push(5);
            }
            j.record(&Call::Operations(call));
            per_op(&mut ops, &mut partials, call);
            let key = |o: &Operation| (o.destination, o.child1, o.child2);
            assert_eq!(
                j.operations().iter().map(key).collect::<Vec<_>>(),
                ops.iter().map(key).collect::<Vec<_>>(),
                "after call {k}"
            );
            assert_eq!(j.partials.keys().copied().collect::<Vec<_>>(), partials);
        }
        assert_eq!(
            partials,
            [5],
            "set_partials kept until an operation rewrote it"
        );
    }

    /// A faulted call is recorded before any back-end has checked its
    /// operations, so a destination far out of range must cost no more
    /// than any other: nothing is sized or indexed by it.
    #[test]
    fn operations_record_takes_any_destination() {
        let mut j = StateJournal::new();
        let huge = [
            op(usize::MAX, 0, 1),
            op(1 << 40, 2, 3),
            op(usize::MAX, 1, 1),
        ];
        j.record(&Call::Operations(&huge));
        j.record(&Call::Operations(&[op(4, 0, 1)]));
        let dests: Vec<usize> = j.operations().iter().map(|o| o.destination).collect();
        assert_eq!(dests, vec![1 << 40, usize::MAX, 4]);
        assert_eq!(j.operations()[1].child1, 1, "latest operands kept");
    }

    #[test]
    fn direct_partials_supersede_operations_and_vice_versa() {
        let mut j = StateJournal::new();
        j.record(&Call::Operations(&[op(4, 0, 1)]));
        j.record(&Call::Partials(4, &[1.0; 16]));
        assert!(j.operations().is_empty());
        j.record(&Call::Operations(&[op(4, 0, 1)]));
        assert_eq!(j.operations().len(), 1);
        assert!(j.partials.is_empty());
    }

    #[test]
    fn matrix_sources_are_exclusive() {
        let mut j = StateJournal::new();
        j.record(&Call::MatrixUpdates(0, &[3], &[0.1], None));
        j.record(&Call::Matrix(3, &[0.25; 16]));
        assert!(j.matrix_updates.is_empty());
        j.record(&Call::MatrixUpdates(0, &[3], &[0.2], None));
        assert!(j.matrices.is_empty());
        assert_eq!(j.matrix_updates[&3], (0, 0.2));
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let mut j = StateJournal::new();
        j.record(&Call::TipStates(0, &[0, 3, u32::MAX]));
        j.record(&Call::TipPartials(1, &[0.25, 1e-300, -0.0]));
        j.record(&Call::Partials(4, &[std::f64::consts::PI, 2.0_f64.sqrt()]));
        j.record(&Call::PatternWeights(&[1.0, 2.0, 3.0]));
        j.record(&Call::Frequencies(0, &[0.1, 0.2, 0.3, 0.4]));
        j.record(&Call::CategoryRates(&[0.5, 1.5]));
        j.record(&Call::CategoryWeights(0, &[0.5, 0.5]));
        j.record(&Call::Eigen(0, &[1.0; 4], &[2.0; 4], &[-0.5, 0.5]));
        j.record(&Call::Matrix(3, &[0.25; 4]));
        j.record(&Call::MatrixUpdates(0, &[5], &[0.123456789], None));
        j.record(&Call::Operations(&[
            op(6, 0, 1),
            op(7, 6, 2).with_scaling(7),
        ]));
        j.record(&Call::ScaleAccumulation(&[6, 7], 9));

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
        /// Tip 1 is out of range; tip 2's device is lost.
        fn set_tip_states(&mut self, tip: usize, _: &[u32]) -> Result<()> {
            match tip {
                1 => Err(BeagleError::OutOfRange {
                    what: "tip",
                    index: 1,
                    limit: 1,
                }),
                2 => Err(BeagleError::Device {
                    kind: crate::error::DeviceErrorKind::DeviceLost,
                    transient: false,
                    device: "mock".into(),
                }),
                _ => Ok(()),
            }
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

    /// A journaled instance over an [`Underflowing`] mock, and the mock's
    /// write log.
    fn journaled_mock() -> (JournaledInstance, Arc<Mutex<Vec<String>>>) {
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
        let inst = JournaledInstance::with_journal(Box::new(mock), &spec, StateJournal::new());
        (inst, writes)
    }

    /// The recording rule: an accepted call is recorded, a rejected one is
    /// not, and one that failed by a fault is, since a rebuild must replay
    /// it.
    #[test]
    fn accepted_and_faulted_calls_are_recorded_rejected_ones_are_not() {
        let (mut inst, _) = journaled_mock();
        assert!(inst.set_tip_states(0, &[0; 10]).is_ok());
        assert!(inst.set_tip_states(1, &[0; 10]).is_err());
        assert!(inst.set_tip_states(2, &[0; 10]).is_err());
        let tips: Vec<usize> = inst.ledger.journal.tip_states.keys().copied().collect();
        assert_eq!(tips, [0, 2]);
    }

    /// Rescue re-runs only the operations whose results the client still
    /// holds: a buffer overwritten by `set_partials` after its operation
    /// ran keeps the client's data.
    #[test]
    fn rescue_never_recomputes_a_buffer_the_client_overwrote() {
        let (mut inst, writes) = journaled_mock();
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
        j.record(&Call::ScaleAccumulation(&[1, 2], 9));
        j.record(&Call::ScaleReset(9));
        j.record(&Call::ScaleAccumulation(&[3], 9));
        assert_eq!(j.scale_accumulations[&9], vec![3]);
    }
}
