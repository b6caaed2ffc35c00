//! The accelerator instance: one implementation, two frameworks, two
//! hardware-specific kernel variants.
//!
//! [`AccelInstance`] is generic over the framework [`Dialect`] (CUDA /
//! OpenCL) — the paper's "single internal interface… which, in turn, has an
//! implementation available for each framework" — and selects between the
//! GPU kernel variant (simulated device, roofline-timed) and the x86 kernel
//! variant (real execution on host threads, wall-clock timed) based on the
//! execution mode it was created with.

use std::sync::Arc;
use std::time::Duration;

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::buffers::{ChildOperand, InstanceBuffers};
use beagle_core::error::{BeagleError, Result};
use beagle_core::obs::{self, EventKind, KernelClass, Recorder};
use beagle_core::ops::Operation;
use beagle_core::real::{weighted_lnl_sum, widen_slice, Real};

use beagle_cpu::kernels::rescale_patterns;
use beagle_cpu::pool::ThreadPool;

use crate::device::{DeviceSpec, SimClock, PCIE_GBS};
use crate::dialect::Dialect;
use crate::fault::{FaultAction, FaultInjector, FaultSite};
use crate::grid::{plan_gpu, plan_x86, WorkGroupPlan};
use crate::kernels::gpu::{partials_kernel, PartialsArgs};
use crate::kernels::integrate::{integrate_edge_kernel, integrate_root_kernel};
use crate::kernels::x86;
use crate::kernels::Operand;
use crate::perf::PerfModel;

/// How kernels execute and how time is accounted.
pub enum ExecMode {
    /// Simulated GPU: functional host execution, modeled device time.
    SimulatedGpu,
    /// OpenCL-x86: genuine parallel execution on host threads, wall-clock
    /// timing. `work_group_patterns` is the Table V tuning knob.
    RealX86 {
        /// Worker pool ("compute units" after device fission).
        pool: Arc<ThreadPool>,
        /// Patterns per work-group (256 default).
        work_group_patterns: usize,
    },
}

/// A BEAGLE instance on a (simulated) accelerator.
pub struct AccelInstance<T: Real, D: Dialect> {
    bufs: InstanceBuffers<T>,
    spec: DeviceSpec,
    perf: PerfModel,
    clock: SimClock,
    mode: ExecMode,
    plan: WorkGroupPlan,
    fma_enabled: bool,
    details: InstanceDetails,
    fault: Option<FaultInjector>,
    /// Per-launch watchdog budget; `None` means the driver default
    /// ([`beagle_core::Deadline::DRIVER_DEFAULT`]). Set through
    /// [`BeagleInstance::set_deadline`].
    watchdog: Option<beagle_core::Deadline>,
    /// Kernel timers/counters + event journal; disabled unless the instance
    /// was created with [`beagle_core::Flags::INSTANCE_STATS`].
    recorder: Recorder,
    _dialect: std::marker::PhantomData<D>,
}

impl<T: Real, D: Dialect> AccelInstance<T, D> {
    /// Create an instance on `spec` with the given execution mode.
    pub fn new(
        config: InstanceConfig,
        spec: DeviceSpec,
        mode: ExecMode,
        details: InstanceDetails,
    ) -> Result<Self> {
        Self::with_fault_injector(config, spec, mode, details, None)
    }

    /// Create an instance with an optional fault injector attached: every
    /// allocation, transfer, and kernel launch then passes a fault
    /// checkpoint (see [`crate::fault`]).
    pub fn with_fault_injector(
        config: InstanceConfig,
        spec: DeviceSpec,
        mode: ExecMode,
        details: InstanceDetails,
        mut fault: Option<FaultInjector>,
    ) -> Result<Self> {
        // Creation compiles kernels and allocates all device buffers — the
        // first checkpoint a faulty device can fail at.
        if let Some(inj) = fault.as_mut() {
            if let FaultAction::Fail(e) = inj.on_call(FaultSite::Allocation) {
                return Err(e);
            }
        }
        let bufs = InstanceBuffers::<T>::new(config)?;
        // Device-memory capacity check: partials + matrices + scale buffers
        // must fit in global memory (the R9 Nano's 4 GB is a real limit the
        // paper's users hit).
        let elem = std::mem::size_of::<T>();
        let needed = config.partials_buffer_count * config.partials_len() * elem
            + config.matrix_buffer_count * config.matrix_len() * elem
            + config.scale_buffer_count * config.pattern_count * elem;
        let capacity = (spec.memory_gb * 1e9) as usize;
        if needed > capacity {
            return Err(BeagleError::ResourceExhausted {
                what: format!(
                    "device memory on {}: problem needs {needed} bytes, capacity {capacity}",
                    spec.name
                ),
            });
        }
        let plan = match &mode {
            ExecMode::SimulatedGpu => plan_gpu(&spec, config.state_count, elem),
            ExecMode::RealX86 {
                work_group_patterns,
                ..
            } => plan_x86(*work_group_patterns),
        };
        // The dialect says whether the *device* would fuse; for the
        // OpenCL-x86 mode the kernels genuinely execute on the host, so the
        // claim must also hold for the host CPU.
        let fma_enabled = D::fma_enabled(&spec)
            && (!matches!(mode, ExecMode::RealX86 { .. }) || beagle_cpu::simd::avx2_available());
        Ok(Self {
            bufs,
            perf: PerfModel::new(spec.clone()),
            spec,
            clock: SimClock::default(),
            mode,
            plan,
            fma_enabled,
            details,
            fault,
            watchdog: None,
            recorder: Recorder::disabled(),
            _dialect: std::marker::PhantomData,
        })
    }

    /// Turn on kernel statistics and the event journal for this instance.
    /// Called by factories when the client asked for
    /// [`beagle_core::Flags::INSTANCE_STATS`].
    pub fn enable_statistics(&mut self) {
        self.recorder = Recorder::new(true);
        let device = self.spec.name;
        let mode = match &self.mode {
            ExecMode::SimulatedGpu => "gpu-simulated".to_string(),
            ExecMode::RealX86 {
                pool,
                work_group_patterns,
            } => {
                format!(
                    "x86 threads={} wg_patterns={work_group_patterns}",
                    pool.thread_count()
                )
            }
        };
        self.recorder.event(EventKind::DispatchSelected, || {
            format!("framework={} device={device} mode={mode}", D::NAME)
        });
    }

    /// Pass one fault checkpoint. `Ok(true)` means "proceed but corrupt the
    /// result" (silent-corruption faults return success codes).
    fn inject(&mut self, site: FaultSite) -> Result<bool> {
        let Some(inj) = self.fault.as_mut() else {
            return Ok(false);
        };
        match inj.on_call(site) {
            FaultAction::Proceed => Ok(false),
            FaultAction::Corrupt => {
                self.recorder.event(EventKind::FaultInjected, || {
                    format!("site={site:?} action=corrupt")
                });
                Ok(true)
            }
            FaultAction::Fail(e) => {
                self.recorder.event(EventKind::FaultInjected, || {
                    format!("site={site:?} action=fail error={e}")
                });
                Err(e)
            }
            FaultAction::Slow(factor) => {
                // Throughput skew: all modeled time from here on is charged
                // at the throttled rate. Only meaningful for simulated
                // devices — the wall clock of a real back-end cannot be
                // stretched retroactively.
                self.recorder.event(EventKind::FaultInjected, || {
                    format!("site={site:?} action=slowdown factor={factor}")
                });
                self.clock.set_scale(factor);
                Ok(false)
            }
            FaultAction::Stall(delay) => {
                let budget = self.watchdog.unwrap_or_default().budget();
                if delay >= budget {
                    // The call will not finish inside the budget: the
                    // watchdog cancels it at the deadline. The device spent
                    // the whole budget hung before the cancel.
                    if self.is_simulated() {
                        self.clock.advance(budget);
                    }
                    self.recorder.event(EventKind::WatchdogTimeout, || {
                        format!("site={site:?} stall={delay:?} budget={budget:?}")
                    });
                    let inj = self.fault.as_ref().expect("injector produced the stall");
                    Err(inj.timeout_error(site, budget))
                } else {
                    // Slow but under budget: the call completes late.
                    self.recorder.event(EventKind::FaultInjected, || {
                        format!("site={site:?} action=stall delay={delay:?}")
                    });
                    if self.is_simulated() {
                        self.clock.advance(delay);
                    } else {
                        std::thread::sleep(delay);
                    }
                    Ok(false)
                }
            }
        }
    }

    /// The error to surface when a NaN traces back to injected corruption
    /// rather than genuine numerics.
    fn corruption_err(&self) -> Option<BeagleError> {
        self.fault
            .as_ref()
            .filter(|inj| inj.corruption_detected())
            .map(|inj| inj.corruption_error())
    }

    /// Simulate flaky VRAM: overwrite a partials buffer with NaN.
    fn poison_partials(&mut self, buffer: usize) {
        if let Some(p) = self.bufs.partials[buffer].as_mut() {
            p.fill(T::from_f64(f64::NAN));
        }
    }

    /// The device this instance runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The kernel launch geometry in use.
    pub fn plan(&self) -> &WorkGroupPlan {
        &self.plan
    }

    fn is_simulated(&self) -> bool {
        matches!(self.mode, ExecMode::SimulatedGpu)
    }

    fn charge_transfer(&mut self, bytes: usize) {
        if self.is_simulated() {
            self.clock
                .advance(Duration::from_secs_f64(bytes as f64 / (PCIE_GBS * 1e9)));
        }
    }

    fn operand<'a>(bufs: &'a InstanceBuffers<T>, buffer: usize) -> Operand<'a, T> {
        match bufs.child_operand(buffer) {
            ChildOperand::Partials(p) => Operand::Partials(p),
            ChildOperand::States(s) => Operand::States(s),
        }
    }

    /// One operation on the simulated GPU: one modeled launch of the
    /// partials kernel and, when scaled, one of the rescale kernel, each
    /// charged the dialect's full launch overhead.
    fn execute_op_gpu(&mut self, op: &Operation) {
        let cfg = self.bufs.config;
        let (s, n_pat, n_cat) = (cfg.state_count, cfg.pattern_count, cfg.category_count);
        let mut dest = self.bufs.take_destination(op.destination);
        {
            let c1 = Self::operand(&self.bufs, op.child1);
            let c2 = Self::operand(&self.bufs, op.child2);
            partials_kernel::<D, T>(PartialsArgs {
                dest: &mut dest,
                c1,
                c2,
                m1: &self.bufs.matrices[op.child1_matrix],
                m2: &self.bufs.matrices[op.child2_matrix],
                states: s,
                patterns: n_pat,
                categories: n_cat,
                plan: self.plan,
                fma_enabled: self.fma_enabled,
            });
        }
        // Charge modeled device time for the launch.
        let elem = std::mem::size_of::<T>();
        let groups = self.plan.group_count(n_pat);
        let cost =
            self.perf
                .partials_cost(s, self.plan.padded_patterns(n_pat), n_cat, groups, elem);
        self.clock.advance(self.perf.kernel_time(
            &cost,
            s,
            elem == 8,
            self.fma_enabled,
            D::launch_overhead_us(),
        ));

        if let Some(si) = op.dest_scale_write {
            let mut scale = self.bufs.take_scale_buffer(si);
            let mut blocks: Vec<&mut [T]> = dest.chunks_exact_mut(n_pat * s).collect();
            rescale_patterns(&mut blocks, &mut scale, s);
            self.bufs.scale_buffers[si] = scale;
            let cost = self.perf.integrate_cost(s, n_pat, n_cat, elem);
            self.clock.advance(self.perf.kernel_time(
                &cost,
                s,
                elem == 8,
                self.fma_enabled,
                D::launch_overhead_us(),
            ));
        }
        self.bufs.restore_destination(op.destination, dest);
    }

    /// One operation on the real-execution x86 device: work-groups run as
    /// pool tasks, exactly `work_group_patterns` patterns each (padding is
    /// inherent to the last group).
    fn execute_op_x86(&mut self, op: &Operation) {
        let ExecMode::RealX86 {
            pool,
            work_group_patterns,
        } = &self.mode
        else {
            unreachable!("execute_op_x86 requires x86 mode")
        };
        let cfg = self.bufs.config;
        let (s, n_pat, n_cat) = (cfg.state_count, cfg.pattern_count, cfg.category_count);
        let wg = *work_group_patterns;
        let groups: Vec<(usize, usize)> = (0..n_pat.div_ceil(wg))
            .map(|g| (g * wg, ((g + 1) * wg).min(n_pat)))
            .collect();

        let mut dest = self.bufs.take_destination(op.destination);
        let mut scale = op
            .dest_scale_write
            .map(|si| self.bufs.take_scale_buffer(si));
        {
            let bufs = &self.bufs;
            let c1 = Self::operand(bufs, op.child1);
            let c2 = Self::operand(bufs, op.child2);
            let m1 = &bufs.matrices[op.child1_matrix];
            let m2 = &bufs.matrices[op.child2_matrix];
            let fma_enabled = self.fma_enabled;

            // Split dest (and scale) into per-(group, category) blocks.
            let mut per_group_blocks: Vec<Vec<&mut [T]>> = (0..groups.len())
                .map(|_| Vec::with_capacity(n_cat))
                .collect();
            for cat_block in dest.chunks_exact_mut(n_pat * s) {
                let mut rest = cat_block;
                for (gi, &(p0, p1)) in groups.iter().enumerate() {
                    let (chunk, r) = rest.split_at_mut((p1 - p0) * s);
                    per_group_blocks[gi].push(chunk);
                    rest = r;
                }
            }
            let mut scale_chunks: Vec<Option<&mut [T]>> = match scale.as_deref_mut() {
                Some(sc) => {
                    let mut rest = sc;
                    let mut out = Vec::with_capacity(groups.len());
                    for &(p0, p1) in &groups {
                        let (chunk, r) = rest.split_at_mut(p1 - p0);
                        out.push(Some(chunk));
                        rest = r;
                    }
                    out
                }
                None => groups.iter().map(|_| None).collect(),
            };

            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = per_group_blocks
                .into_iter()
                .zip(groups.iter().copied())
                .zip(scale_chunks.drain(..))
                .map(|((mut blocks, (p0, p1)), scale_chunk)| {
                    Box::new(move || {
                        x86::partials_group::<D, T>(
                            &mut blocks,
                            c1,
                            c2,
                            m1,
                            m2,
                            s,
                            n_pat,
                            p0,
                            p1,
                            fma_enabled,
                        );
                        if let Some(sc) = scale_chunk {
                            rescale_patterns(&mut blocks, sc, s);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks);
        }
        let n_groups = groups.len() as u64;
        self.recorder.tally(KernelClass::PoolDispatch, n_groups, 0);
        if let (Some(si), Some(sc)) = (op.dest_scale_write, scale) {
            self.bufs.scale_buffers[si] = sc;
        }
        self.bufs.restore_destination(op.destination, dest);
    }

    /// True when buffer `b` holds compact tip states (and no expanded
    /// partials) — the same classification the kernels dispatch on.
    fn is_state_operand(&self, b: usize) -> bool {
        self.bufs.partials[b].is_none() && self.bufs.tip_states[b].is_some()
    }

    /// Attribute one `update_partials`-family call's measured wall time and
    /// modeled device time across the partials kernel classes, split by
    /// each class's share of the operation list.
    fn record_partials_call(
        &mut self,
        operations: &[Operation],
        wall: std::time::Duration,
        modeled: Duration,
    ) {
        let mut counts = [0u64; 3];
        for op in operations {
            let idx = match (
                self.is_state_operand(op.child1),
                self.is_state_operand(op.child2),
            ) {
                (false, false) => 0,
                (true, true) => 2,
                _ => 1,
            };
            counts[idx] += 1;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return;
        }
        let cfg = &self.bufs.config;
        let bytes_per_op = (3 * cfg.partials_len() * std::mem::size_of::<T>()) as u64;
        let classes = [
            KernelClass::PartialsPP,
            KernelClass::PartialsSP,
            KernelClass::PartialsSS,
        ];
        for (i, class) in classes.into_iter().enumerate() {
            if counts[i] == 0 {
                continue;
            }
            let share = counts[i] as f64 / total as f64;
            self.recorder
                .tally(class, counts[i], counts[i] * bytes_per_op);
            self.recorder.add_wall(class, wall.mul_f64(share));
            self.recorder.add_modeled(class, modeled.mul_f64(share));
        }
    }

    /// Modeled device time spent since `before` (zero for the x86 device,
    /// whose clock never advances).
    fn modeled_since(&self, before: Duration) -> Duration {
        self.clock.elapsed().saturating_sub(before)
    }
}

impl<T: Real, D: Dialect> BeagleInstance for AccelInstance<T, D> {
    fn details(&self) -> &InstanceDetails {
        &self.details
    }

    fn config(&self) -> &InstanceConfig {
        &self.bufs.config
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_tip_states(tip, states)?;
        self.charge_transfer(states.len() * 4);
        Ok(())
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_tip_partials(tip, partials)?;
        self.charge_transfer(partials.len() * std::mem::size_of::<T>());
        Ok(())
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_partials(buffer, partials)?;
        self.charge_transfer(partials.len() * std::mem::size_of::<T>());
        Ok(())
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        // Download cost is not charged here because &self; the benchmark
        // harness never reads partials back on the hot path (the BEAGLE
        // design goal of minimizing transfers).
        self.bufs.get_partials(buffer)
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_pattern_weights(weights)?;
        self.charge_transfer(weights.len() * std::mem::size_of::<T>());
        Ok(())
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_state_frequencies(index, frequencies)
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_category_rates(rates)
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_category_weights(index, weights)
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs
            .set_eigen_decomposition(index, vectors, inverse_vectors, values)?;
        self.charge_transfer((vectors.len() + inverse_vectors.len() + values.len()) * 8);
        Ok(())
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        let sw = self.recorder.start();
        let dev0 = self.clock.elapsed();
        let corrupt = self.inject(FaultSite::KernelLaunch)?;
        // Matrix exponentiation runs as a device kernel; the shared helper
        // computes the same values the kernel would.
        self.bufs
            .update_transition_matrices(eigen_index, matrix_indices, branch_lengths)?;
        if corrupt {
            for &mi in matrix_indices {
                self.bufs.matrices[mi].fill(T::from_f64(f64::NAN));
                self.bufs.matrix_bounds.forget(mi);
            }
        }
        if self.is_simulated() {
            let cfg = self.bufs.config;
            let cost = self.perf.matrices_cost(
                cfg.state_count,
                cfg.category_count,
                matrix_indices.len(),
                std::mem::size_of::<T>(),
            );
            self.clock.advance(self.perf.kernel_time(
                &cost,
                cfg.state_count,
                std::mem::size_of::<T>() == 8,
                self.fma_enabled,
                D::launch_overhead_us(),
            ));
        }
        let bytes = (matrix_indices.len()
            * self.bufs.config.matrix_len()
            * std::mem::size_of::<T>()) as u64;
        let modeled = self.modeled_since(dev0);
        self.recorder
            .add_modeled(KernelClass::TransitionMatrices, modeled);
        self.recorder.finish(
            sw,
            KernelClass::TransitionMatrices,
            matrix_indices.len() as u64,
            bytes,
        );
        Ok(())
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        let sw = self.recorder.start();
        let dev0 = self.clock.elapsed();
        let corrupt = self.inject(FaultSite::KernelLaunch)?;
        self.bufs.update_transition_derivatives(
            eigen_index,
            matrix_indices,
            d1_indices,
            d2_indices,
            branch_lengths,
        )?;
        if corrupt {
            for &mi in matrix_indices {
                self.bufs.matrices[mi].fill(T::from_f64(f64::NAN));
                self.bufs.matrix_bounds.forget(mi);
            }
        }
        if self.is_simulated() {
            // Three matrices per branch instead of one.
            let cfg = self.bufs.config;
            let cost = self.perf.matrices_cost(
                cfg.state_count,
                cfg.category_count,
                3 * matrix_indices.len(),
                std::mem::size_of::<T>(),
            );
            self.clock.advance(self.perf.kernel_time(
                &cost,
                cfg.state_count,
                std::mem::size_of::<T>() == 8,
                self.fma_enabled,
                D::launch_overhead_us(),
            ));
        }
        let modeled = self.modeled_since(dev0);
        self.recorder
            .add_modeled(KernelClass::TransitionMatrices, modeled);
        self.recorder.finish(
            sw,
            KernelClass::TransitionMatrices,
            3 * matrix_indices.len() as u64,
            0,
        );
        Ok(())
    }

    fn integrate_edge_derivatives(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        d1_id: BufferId,
        d2_id: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<(f64, f64, f64)> {
        let sw = self.recorder.start();
        let dev0 = self.clock.elapsed();
        let parent_buffer = parent.index();
        let child_buffer = child.index();
        let matrix_index = matrix.index();
        let d1_matrix = d1_id.index();
        let d2_matrix = d2_id.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        self.inject(FaultSite::KernelLaunch)?;
        use beagle_cpu::kernels as k;
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[parent_buffer, child_buffer],
            &[matrix_index, d1_matrix, d2_matrix],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let parent =
            self.bufs.partials[parent_buffer]
                .as_ref()
                .ok_or(BeagleError::InvalidConfiguration(format!(
                    "parent buffer {parent_buffer} has never been computed"
                )))?;
        let child = match self.bufs.try_child_operand(child_buffer)? {
            ChildOperand::Partials(p) => k::EdgeChild::Partials(p),
            ChildOperand::States(st) => k::EdgeChild::States(st),
        };
        let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
        // Functionally identical to the device derivative kernel; device
        // time is the triple-read integration cost.
        let (lnl, d1, d2) = k::integrate_edge_derivatives(
            parent,
            child,
            &self.bufs.matrices[matrix_index],
            &self.bufs.matrices[d1_matrix],
            &self.bufs.matrices[d2_matrix],
            &self.bufs.frequencies[frequencies_index],
            &self.bufs.category_weights[category_weights_index],
            &self.bufs.pattern_weights,
            cscale,
            cfg.state_count,
            self.bufs.state_stride,
            cfg.pattern_count,
        );
        if self.is_simulated() {
            let elem = std::mem::size_of::<T>();
            let mut cost = self.perf.integrate_cost(
                cfg.state_count,
                cfg.pattern_count,
                cfg.category_count,
                elem,
            );
            cost.flops *= 3.0;
            cost.bytes *= 3.0;
            self.clock.advance(self.perf.kernel_time(
                &cost,
                cfg.state_count,
                elem == 8,
                self.fma_enabled,
                D::launch_overhead_us(),
            ));
        }
        let modeled = self.modeled_since(dev0);
        self.recorder
            .add_modeled(KernelClass::EdgeIntegrate, modeled);
        self.recorder
            .finish(sw, KernelClass::EdgeIntegrate, cfg.pattern_count as u64, 0);
        if lnl.is_nan() {
            if let Some(e) = self.corruption_err() {
                return Err(e);
            }
            return Err(BeagleError::NumericalFailure(
                "edge derivative log-likelihood is NaN".into(),
            ));
        }
        Ok((lnl, d1, d2))
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.inject(FaultSite::Copy)?;
        self.bufs.set_transition_matrix(index, matrix)?;
        self.charge_transfer(matrix.len() * std::mem::size_of::<T>());
        Ok(())
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.bufs.get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        self.bufs.check_operations(operations)?;
        let t0 = self.recorder.is_enabled().then(std::time::Instant::now);
        self.recorder.event(EventKind::OperationBegin, || {
            format!("update_partials ops={}", operations.len())
        });
        let dev0 = self.clock.elapsed();
        for op in operations {
            let corrupt = self.inject(FaultSite::KernelLaunch)?;
            if self.is_simulated() {
                self.execute_op_gpu(op);
            } else {
                self.execute_op_x86(op);
            }
            if corrupt {
                self.poison_partials(op.destination);
            }
        }
        if let Some(t0) = t0 {
            let modeled = self.modeled_since(dev0);
            self.record_partials_call(operations, t0.elapsed(), modeled);
            self.recorder.event(EventKind::OperationEnd, || {
                format!("update_partials ops={}", operations.len())
            });
        }
        Ok(())
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        let sw = self.recorder.start();
        self.inject(FaultSite::KernelLaunch)?;
        let r = self.bufs.reset_scale_factors(cumulative);
        self.recorder.finish(sw, KernelClass::Rescale, 1, 0);
        r
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        let sw = self.recorder.start();
        self.inject(FaultSite::KernelLaunch)?;
        let r = self
            .bufs
            .accumulate_scale_factors(scale_indices, cumulative);
        self.recorder
            .finish(sw, KernelClass::Rescale, scale_indices.len() as u64, 0);
        r
    }

    fn integrate_root(
        &mut self,
        root_id: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let sw = self.recorder.start();
        let dev0 = self.clock.elapsed();
        let root_buffer = root_id.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        self.inject(FaultSite::KernelLaunch)?;
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[root_buffer],
            &[],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let root =
            self.bufs.partials[root_buffer]
                .take()
                .ok_or(BeagleError::InvalidConfiguration(format!(
                    "root buffer {root_buffer} has never been computed"
                )))?;
        let mut site_lnl = std::mem::take(&mut self.bufs.site_log_likelihoods);
        {
            let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
            integrate_root_kernel::<D, T>(
                &mut site_lnl,
                &root,
                &self.bufs.frequencies[frequencies_index],
                &self.bufs.category_weights[category_weights_index],
                cscale,
                cfg.state_count,
                cfg.pattern_count,
                self.fma_enabled,
            );
        }
        let total = weighted_lnl_sum(0.0, &site_lnl, self.bufs.pattern_weights.iter().copied());
        self.bufs.site_log_likelihoods = site_lnl;
        self.bufs.partials[root_buffer] = Some(root);

        if self.is_simulated() {
            let elem = std::mem::size_of::<T>();
            let cost = self.perf.integrate_cost(
                cfg.state_count,
                cfg.pattern_count,
                cfg.category_count,
                elem,
            );
            self.clock.advance(self.perf.kernel_time(
                &cost,
                cfg.state_count,
                elem == 8,
                self.fma_enabled,
                D::launch_overhead_us(),
            ));
            // Only the scalar total is transferred back.
            self.charge_transfer(8);
        }
        let modeled = self.modeled_since(dev0);
        self.recorder
            .add_modeled(KernelClass::RootIntegrate, modeled);
        self.recorder
            .finish(sw, KernelClass::RootIntegrate, cfg.pattern_count as u64, 0);
        if total.is_nan() {
            // A NaN after an injected silent-corruption fault is device
            // damage, not numerics: report it as such so failover (not
            // rescaling) handles it.
            if let Some(e) = self.corruption_err() {
                return Err(e);
            }
            return Err(BeagleError::NumericalFailure(
                "root log-likelihood is NaN (consider enabling scaling)".into(),
            ));
        }
        Ok(total)
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
        let sw = self.recorder.start();
        let dev0 = self.clock.elapsed();
        let parent_buffer = parent.index();
        let child_buffer = child.index();
        let matrix_index = matrix.index();
        let category_weights_index = category_weights.index();
        let frequencies_index = frequencies.index();
        let cumulative_scale = scaling.index();
        self.inject(FaultSite::KernelLaunch)?;
        let cfg = self.bufs.config;
        self.bufs.check_integration_indices(
            &[parent_buffer, child_buffer],
            &[matrix_index],
            frequencies_index,
            category_weights_index,
            cumulative_scale,
        )?;
        let parent =
            self.bufs.partials[parent_buffer]
                .as_ref()
                .ok_or(BeagleError::InvalidConfiguration(format!(
                    "parent buffer {parent_buffer} has never been computed"
                )))?;
        let child = match self.bufs.try_child_operand(child_buffer)? {
            ChildOperand::Partials(p) => Operand::Partials(p),
            ChildOperand::States(s) => Operand::States(s),
        };
        let mut site_lnl = vec![T::ZERO; cfg.pattern_count];
        let cscale = cumulative_scale.map(|i| self.bufs.scale_buffers[i].as_slice());
        integrate_edge_kernel::<D, T>(
            &mut site_lnl,
            parent,
            child,
            &self.bufs.matrices[matrix_index],
            &self.bufs.frequencies[frequencies_index],
            &self.bufs.category_weights[category_weights_index],
            cscale,
            cfg.state_count,
            cfg.pattern_count,
            self.fma_enabled,
        );
        let total = weighted_lnl_sum(0.0, &site_lnl, self.bufs.pattern_weights.iter().copied());
        self.bufs.site_log_likelihoods = site_lnl;
        if self.is_simulated() {
            let elem = std::mem::size_of::<T>();
            let cost = self.perf.integrate_cost(
                cfg.state_count,
                cfg.pattern_count,
                cfg.category_count,
                elem,
            );
            self.clock.advance(self.perf.kernel_time(
                &cost,
                cfg.state_count,
                elem == 8,
                self.fma_enabled,
                D::launch_overhead_us(),
            ));
        }
        let modeled = self.modeled_since(dev0);
        self.recorder
            .add_modeled(KernelClass::EdgeIntegrate, modeled);
        self.recorder
            .finish(sw, KernelClass::EdgeIntegrate, cfg.pattern_count as u64, 0);
        if total.is_nan() {
            if let Some(e) = self.corruption_err() {
                return Err(e);
            }
            return Err(BeagleError::NumericalFailure(
                "edge log-likelihood is NaN (consider enabling scaling)".into(),
            ));
        }
        Ok(total)
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        Ok(widen_slice(&self.bufs.site_log_likelihoods))
    }

    fn simulated_time(&self) -> Option<Duration> {
        self.is_simulated().then(|| self.clock.elapsed())
    }

    fn reset_simulated_time(&mut self) {
        self.clock.reset();
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        self.recorder.stats()
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        self.recorder.take_journal()
    }

    fn set_deadline(&mut self, deadline: Option<beagle_core::Deadline>) {
        self.watchdog = deadline;
    }
}
