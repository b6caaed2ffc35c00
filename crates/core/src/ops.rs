//! Partial-likelihood operation descriptors.
//!
//! `update_partials` takes a list of these, in an order the client guarantees
//! to be dependency-safe (children before parents — i.e. post-order). The
//! threading back-ends level the list with [`LevelPlan`] to find operations
//! that may run concurrently (the paper's "futures" model).

/// One partial-likelihoods evaluation:
/// `partials[destination] = (M[matrix1] · partials[child1]) ⊙ (M[matrix2] · partials[child2])`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Operation {
    /// Partials buffer written.
    pub destination: usize,
    /// If `Some(s)`, rescale the freshly computed partials and write the
    /// per-pattern log scale factors to scale buffer `s`.
    pub dest_scale_write: Option<usize>,
    /// First child partials buffer (may be a compact tip-state buffer).
    pub child1: usize,
    /// Transition matrix for the child-1 branch.
    pub child1_matrix: usize,
    /// Second child partials buffer.
    pub child2: usize,
    /// Transition matrix for the child-2 branch.
    pub child2_matrix: usize,
}

impl Operation {
    /// Convenience constructor for the common unscaled case.
    pub fn new(
        destination: usize,
        child1: usize,
        child1_matrix: usize,
        child2: usize,
        child2_matrix: usize,
    ) -> Self {
        Self {
            destination,
            dest_scale_write: None,
            child1,
            child1_matrix,
            child2,
            child2_matrix,
        }
    }

    /// Enable rescaling into scale buffer `s`.
    pub fn with_scaling(mut self, s: usize) -> Self {
        self.dest_scale_write = Some(s);
        self
    }
}

/// A hazard-aware level plan of an operation list: every operation of one
/// level may run at the same time as the others, and running the levels in
/// order leaves exactly what running the list in order leaves. This is the
/// concurrency the futures model exploits, and what a threaded back-end
/// batches into one dispatch.
///
/// [`LevelPlan::plan`] makes one pass and puts each operation one level
/// above the latest level that wrote either of its children (read after
/// write), wrote or read its destination (write after write, write after
/// read), or wrote its scale target. So no level writes a buffer or a scale
/// buffer twice, and no level reads a buffer another of its operations
/// writes. The plan lives in buffers the caller keeps, so re-planning a
/// list of the same shape allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct LevelPlan {
    /// `(level, index)` of every operation, sorted.
    order: Vec<(usize, usize)>,
    /// Per buffer, one above the latest level that wrote it (0: none).
    wrote: Vec<usize>,
    /// Per buffer, one above the latest level that read it (0: none).
    read: Vec<usize>,
    /// Per scale buffer, one above the latest level that wrote it.
    scaled: Vec<usize>,
}

/// `v` as `n` zeros, keeping its capacity.
fn zeroed(v: &mut Vec<usize>, n: usize) {
    v.clear();
    v.resize(n, 0);
}

impl LevelPlan {
    /// Level `operations`, replacing the previous plan.
    pub fn plan(&mut self, operations: &[Operation]) {
        let buffers = operations
            .iter()
            .map(|op| op.destination.max(op.child1).max(op.child2) + 1)
            .max()
            .unwrap_or(0);
        let scales = operations
            .iter()
            .filter_map(|op| op.dest_scale_write.map(|s| s + 1))
            .max()
            .unwrap_or(0);
        zeroed(&mut self.wrote, buffers);
        zeroed(&mut self.read, buffers);
        zeroed(&mut self.scaled, scales);
        self.order.clear();
        for (i, op) in operations.iter().enumerate() {
            let d = op.destination;
            let mut l = self.wrote[op.child1]
                .max(self.wrote[op.child2])
                .max(self.wrote[d])
                .max(self.read[d]);
            if let Some(s) = op.dest_scale_write {
                l = l.max(self.scaled[s]);
                self.scaled[s] = l + 1;
            }
            self.wrote[d] = l + 1;
            for c in [op.child1, op.child2] {
                self.read[c] = self.read[c].max(l + 1);
            }
            self.order.push((l, i));
        }
        // In place, so a warm plan allocates nothing.
        self.order.sort_unstable();
    }

    /// Every level, first to last, as the indices of its operations in the
    /// planned list, ascending.
    pub fn levels(&self) -> impl Iterator<Item = impl Iterator<Item = usize> + Clone + '_> {
        self.order
            .chunk_by(|a, b| a.0 == b.0)
            .map(|level| level.iter().map(|&(_, i)| i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(dest: usize, c1: usize, c2: usize) -> Operation {
        Operation::new(dest, c1, c1, c2, c2)
    }

    /// The plan of `ops` as lists of operations, after checking that it is
    /// sound: it holds every operation once, in list order within a level,
    /// and puts every pair that must stay ordered (one reads or rewrites
    /// what the other writes, one rewrites what the other reads, or both
    /// write one scale buffer) in ascending levels.
    fn levels(ops: &[Operation]) -> Vec<Vec<Operation>> {
        let mut plan = LevelPlan::default();
        plan.plan(ops);
        let plan: Vec<Vec<usize>> = plan.levels().map(Iterator::collect).collect();
        let mut level_of = vec![usize::MAX; ops.len()];
        for (l, level) in plan.iter().enumerate() {
            assert!(!level.is_empty(), "level {l} is empty");
            assert!(
                level.windows(2).all(|w| w[0] < w[1]),
                "level {l} out of order"
            );
            for &i in level {
                assert_eq!(level_of[i], usize::MAX, "operation {i} planned twice");
                level_of[i] = l;
            }
        }
        assert!(
            level_of.iter().all(|&l| l != usize::MAX),
            "an operation is missing"
        );
        for (j, b) in ops.iter().enumerate() {
            for (i, a) in ops[..j].iter().enumerate() {
                let raw = [b.child1, b.child2].contains(&a.destination);
                let war = [a.child1, a.child2].contains(&b.destination);
                let waw = a.destination == b.destination;
                let scale =
                    a.dest_scale_write.is_some() && a.dest_scale_write == b.dest_scale_write;
                if raw || war || waw || scale {
                    assert!(level_of[i] < level_of[j], "{a:?} must precede {b:?}");
                }
            }
        }
        plan.iter()
            .map(|level| level.iter().map(|&i| ops[i]).collect())
            .collect()
    }

    fn shape(levels: &[Vec<Operation>]) -> Vec<usize> {
        levels.iter().map(Vec::len).collect()
    }

    #[test]
    fn independent_ops_share_a_level() {
        // Two cherries feeding a root: ops (4 <- 0,1), (5 <- 2,3), (6 <- 4,5)
        let levels = levels(&[op(4, 0, 1), op(5, 2, 3), op(6, 4, 5)]);
        assert_eq!(shape(&levels), [2, 1]);
        assert_eq!(levels[1][0].destination, 6);
    }

    #[test]
    fn ladder_is_fully_sequential() {
        // Caterpillar: each op depends on the previous destination.
        let ops = [op(5, 0, 1), op(6, 5, 2), op(7, 6, 3), op(8, 7, 4)];
        assert_eq!(shape(&levels(&ops)), [1, 1, 1, 1]);
    }

    #[test]
    fn balanced_tree_has_log_depth() {
        // 8 tips (0..8), internals 8..15 in post-order by pairs.
        let ops = [
            op(8, 0, 1),
            op(9, 2, 3),
            op(10, 4, 5),
            op(11, 6, 7),
            op(12, 8, 9),
            op(13, 10, 11),
            op(14, 12, 13),
        ];
        assert_eq!(shape(&levels(&ops)), [4, 2, 1]);
    }

    #[test]
    fn scaling_builder() {
        let o = Operation::new(3, 0, 0, 1, 1).with_scaling(7);
        assert_eq!(o.dest_scale_write, Some(7));
    }

    #[test]
    fn empty_list_has_no_levels() {
        let mut plan = LevelPlan::default();
        plan.plan(&[]);
        assert_eq!(plan.levels().count(), 0);
        // A plan is replaced, not extended.
        plan.plan(&[op(4, 0, 1)]);
        plan.plan(&[]);
        assert_eq!(plan.levels().count(), 0);
    }

    #[test]
    fn single_chain_is_one_op_per_level() {
        let ops = [op(2, 0, 1), op(3, 2, 1), op(4, 3, 0)];
        let levels = levels(&ops);
        assert_eq!(levels.len(), 3);
        for (i, level) in levels.iter().enumerate() {
            assert_eq!(level, &[ops[i]]);
        }
    }

    #[test]
    fn diamond_dependencies_meet_at_the_join() {
        // One shared child feeds two independent parents which then join:
        //   4 <- (0,1), 5 <- (4,2), 6 <- (4,3), 7 <- (5,6).
        let ops = [op(4, 0, 1), op(5, 4, 2), op(6, 4, 3), op(7, 5, 6)];
        let levels = levels(&ops);
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![ops[0]]);
        assert_eq!(
            levels[1],
            vec![ops[1], ops[2]],
            "both diamond arms share a level"
        );
        assert_eq!(levels[2], vec![ops[3]]);
    }

    #[test]
    fn distinct_scale_targets_do_not_affect_leveling() {
        let plain = [op(4, 0, 1), op(5, 2, 3), op(6, 4, 5)];
        let scaled: Vec<Operation> = plain
            .iter()
            .map(|o| o.with_scaling(o.destination))
            .collect();
        let lp = levels(&plain);
        let ls = levels(&scaled);
        assert_eq!(shape(&lp), shape(&ls));
        for (a, b) in lp.iter().zip(&ls) {
            let da: Vec<usize> = a.iter().map(|o| o.destination).collect();
            let db: Vec<usize> = b.iter().map(|o| o.destination).collect();
            assert_eq!(da, db);
        }
        // And the scale targets survive scheduling untouched.
        assert_eq!(ls[1][0].dest_scale_write, Some(6));
    }

    #[test]
    fn repeated_traversals_level_after_each_other() {
        // The same traversal twice: rewriting 4 and 5 must wait for 6 to
        // read them (WAR), and the second 6 for the new 4 and 5.
        let t = [op(4, 0, 1), op(5, 2, 3), op(6, 4, 5)];
        let merged: Vec<Operation> = t.iter().chain(t.iter()).copied().collect();
        let levels = levels(&merged);
        assert_eq!(shape(&levels), [2, 1, 2, 1]);
        assert_eq!(levels[..2].concat(), t.to_vec());
        assert_eq!(levels[2..].concat(), t.to_vec());
    }

    #[test]
    fn write_after_read_waits_for_the_read() {
        // op reads buffer 4, then a later op overwrites 4: they may not
        // share a level.
        let levels = levels(&[op(5, 4, 0), op(4, 1, 2)]);
        assert_eq!(shape(&levels), [1, 1]);
        assert_eq!(levels[0][0].destination, 5);
        assert_eq!(levels[1][0].destination, 4);
    }

    #[test]
    fn scale_buffer_reuse_waits_for_the_first_write() {
        // Distinct destinations but the same scale target: the second write
        // to scale buffer 9 goes one level up, and its parent above it.
        let ops = [
            op(4, 0, 1).with_scaling(9),
            op(5, 2, 3).with_scaling(9),
            op(6, 4, 5),
        ];
        let levels = levels(&ops);
        assert_eq!(levels, [vec![ops[0]], vec![ops[1]], vec![ops[2]]]);
    }

    #[test]
    fn rewrite_of_a_buffer_still_read_waits_and_its_reader_follows() {
        // 5 <- (0,1); 6 <- (5,2); 5 <- (3,4); 7 <- (6,5): the second write
        // of 5 (WAW and WAR) waits for 6 to read the first, and 7 reads the
        // second.
        let ops = [op(5, 0, 1), op(6, 5, 2), op(5, 3, 4), op(7, 6, 5)];
        let levels = levels(&ops);
        assert_eq!(
            levels,
            [vec![ops[0]], vec![ops[1]], vec![ops[2]], vec![ops[3]]]
        );
    }

    #[test]
    fn random_lists_plan_soundly() {
        // A small LCG drives lists over few buffers, so hazards of every
        // kind are common; `levels` checks each plan.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) % n) as usize
        };
        for _ in 0..500 {
            let len = 1 + next(12);
            let ops: Vec<Operation> = (0..len)
                .map(|_| {
                    let o = op(4 + next(6), next(10), next(10));
                    match next(3) {
                        0 => o.with_scaling(next(3)),
                        _ => o,
                    }
                })
                .collect();
            levels(&ops);
        }
    }
}
