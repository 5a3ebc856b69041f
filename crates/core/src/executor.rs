//! The executor side of offloading: admission control and metered
//! execution (RQ2's receiving end, RQ3's feasibility checks).
//!
//! An executor *re-verifies everything locally* before accepting: the
//! program must pass the TaskVM verifier, the declared resources must fit,
//! the requested data must actually be present at adequate quality, the
//! privacy policy must allow the derived output, and the backlog must
//! leave a chance of meeting the deadline. Accepted tasks really execute —
//! bytecode against local data words — and their *measured* gas (not the
//! declaration) advances the executor's busy horizon.

use airdnd_data::{DataCatalog, DataQuery, DataType};
use airdnd_sim::{SimDuration, SimTime};
use airdnd_task::vm::{execute, verify, ExecLimits, Trap, VerifiedProgram};
use airdnd_task::TaskSpec;
use airdnd_trust::{PrivacyLevel, PrivacyPolicy};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Why an executor declined an offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeclineReason {
    /// Not accepting work at all.
    NotAccepting,
    /// The program failed static verification.
    ProgramInvalid,
    /// Declared memory exceeds what this node offers.
    InsufficientMemory,
    /// A data query has no adequate local match.
    DataUnavailable,
    /// Backlog too deep to make the deadline plausible.
    Overloaded,
    /// The local privacy policy forbids the derived output.
    PrivacyViolation,
}

impl fmt::Display for DeclineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeclineReason::NotAccepting => "not accepting work",
            DeclineReason::ProgramInvalid => "program failed verification",
            DeclineReason::InsufficientMemory => "insufficient memory",
            DeclineReason::DataUnavailable => "requested data unavailable",
            DeclineReason::Overloaded => "backlog too deep",
            DeclineReason::PrivacyViolation => "privacy policy violation",
        };
        f.write_str(s)
    }
}

/// An accepted offer: when it should finish, and its program, verified once
/// here and run as is by [`ExecutorSim::execute`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Estimated completion time.
    pub eta: SimTime,
    /// The task's program, verified.
    pub program: VerifiedProgram,
}

/// Result of a completed local execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutionResult {
    /// When the result is ready to transmit.
    pub finish: SimTime,
    /// The program's outputs (possibly corrupted if this node is
    /// byzantine).
    pub outputs: Vec<i64>,
    /// Gas actually consumed.
    pub gas_used: u64,
}

/// Simulated execution engine of one node.
#[derive(Clone, Debug)]
pub struct ExecutorSim {
    gas_rate: u64,
    mem_bytes: u64,
    accepting: bool,
    byzantine: bool,
    busy_until: SimTime,
    queued_gas: u64,
    running: BTreeMap<u64, u64>, // task id → reserved gas
    total_gas_executed: u64,
    tasks_executed: u64,
}

impl ExecutorSim {
    /// Creates an executor with the given speed (gas/s) and memory.
    ///
    /// # Panics
    ///
    /// Panics if `gas_rate` is zero — a node that cannot execute should
    /// simply not accept work.
    pub fn new(gas_rate: u64, mem_bytes: u64) -> Self {
        assert!(gas_rate > 0, "executor needs a positive gas rate");
        ExecutorSim {
            gas_rate,
            mem_bytes,
            accepting: true,
            byzantine: false,
            busy_until: SimTime::ZERO,
            queued_gas: 0,
            running: BTreeMap::new(),
            total_gas_executed: 0,
            tasks_executed: 0,
        }
    }

    /// Execution speed, gas per second.
    pub fn gas_rate(&self) -> u64 {
        self.gas_rate
    }

    /// Memory offered to tasks, bytes.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Enables/disables accepting new work.
    pub fn set_accepting(&mut self, accepting: bool) {
        self.accepting = accepting;
    }

    /// Whether the node accepts new work.
    pub fn is_accepting(&self) -> bool {
        self.accepting
    }

    /// Makes this executor return corrupted results (for RQ3 experiments).
    pub fn set_byzantine(&mut self, byzantine: bool) {
        self.byzantine = byzantine;
    }

    /// Whether this executor corrupts results.
    pub fn is_byzantine(&self) -> bool {
        self.byzantine
    }

    /// Gas reserved by admitted-but-unfinished tasks.
    pub fn backlog_gas(&self) -> u64 {
        self.queued_gas
    }

    /// Lifetime totals: `(tasks_executed, gas_executed)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.tasks_executed, self.total_gas_executed)
    }

    /// Estimated completion time if a task of `gas` were admitted at `now`.
    pub fn eta(&self, now: SimTime, gas: u64) -> SimTime {
        let start = self.busy_until.max(now);
        start + SimDuration::from_secs_f64(gas as f64 / self.gas_rate as f64)
    }

    /// Admission control: all the RQ3 feasibility checks. The program is
    /// verified last, after the cheaper checks.
    ///
    /// # Errors
    ///
    /// Returns the first failing [`DeclineReason`].
    pub fn admit(
        &self,
        now: SimTime,
        task: &TaskSpec,
        catalog: &DataCatalog,
        privacy: &PrivacyPolicy<DataType>,
        output_level: PrivacyLevel,
        max_backlog_factor: f64,
    ) -> Result<Admission, DeclineReason> {
        if !self.accepting {
            return Err(DeclineReason::NotAccepting);
        }
        if task.requirements.memory_bytes > self.mem_bytes {
            return Err(DeclineReason::InsufficientMemory);
        }
        for query in &task.inputs {
            if !privacy.allows(&query.data_type, output_level) {
                return Err(DeclineReason::PrivacyViolation);
            }
        }
        if airdnd_data::match_score(catalog, &task.inputs, now) <= 0.0 {
            return Err(DeclineReason::DataUnavailable);
        }
        let backlog_secs = self.queued_gas as f64 / self.gas_rate as f64;
        if backlog_secs > task.requirements.deadline.as_secs_f64() * max_backlog_factor {
            return Err(DeclineReason::Overloaded);
        }
        let program = verify(task.program.clone()).map_err(|_| DeclineReason::ProgramInvalid)?;
        Ok(Admission {
            eta: self.eta(now, task.requirements.gas),
            program,
        })
    }

    /// Reserves backlog for an admitted task (call right after a
    /// successful [`ExecutorSim::admit`]).
    pub fn reserve(&mut self, task_id: u64, gas: u64) {
        self.queued_gas += gas;
        self.running.insert(task_id, gas);
    }

    /// Runs an admitted program against `inputs` with a budget of `gas`,
    /// advancing the busy horizon by the *measured* gas. Releases the
    /// reservation.
    ///
    /// # Errors
    ///
    /// Returns the VM [`Trap`] if the program faults; the reservation is
    /// still released and time is charged for the whole budget.
    pub fn execute(
        &mut self,
        now: SimTime,
        task_id: u64,
        program: &VerifiedProgram,
        gas: u64,
        inputs: &[i64],
    ) -> Result<ExecutionResult, Trap> {
        let reserved = self.running.remove(&task_id).unwrap_or(0);
        self.queued_gas = self.queued_gas.saturating_sub(reserved);
        let limits = ExecLimits {
            max_gas: gas,
            max_outputs: 65_536,
        };
        let start = self.busy_until.max(now);
        match execute(program, inputs, limits) {
            Ok(exec) => {
                let finish =
                    start + SimDuration::from_secs_f64(exec.gas_used as f64 / self.gas_rate as f64);
                self.busy_until = finish;
                self.total_gas_executed += exec.gas_used;
                self.tasks_executed += 1;
                let mut outputs = exec.outputs;
                if self.byzantine {
                    // Corrupt deterministically: flip the low bits.
                    for w in &mut outputs {
                        *w ^= 0x0BAD;
                    }
                    if outputs.is_empty() {
                        outputs.push(0x0BAD);
                    }
                }
                Ok(ExecutionResult {
                    finish,
                    outputs,
                    gas_used: exec.gas_used,
                })
            }
            Err(trap) => {
                // Charge the declared budget: a trapping task still burned time.
                self.busy_until =
                    start + SimDuration::from_secs_f64(gas as f64 / self.gas_rate as f64);
                Err(trap)
            }
        }
    }

    /// Cancels a reservation without executing (requester cancelled).
    pub fn cancel(&mut self, task_id: u64) {
        if let Some(gas) = self.running.remove(&task_id) {
            self.queued_gas = self.queued_gas.saturating_sub(gas);
        }
    }
}

/// Builds the VM input words for a task from the best catalog matches:
/// the payloads of the chosen items, concatenated in query order.
///
/// Returns `None` if any query has no adequate match (admission should
/// have caught this; races between admit and execute can still surface
/// it).
pub fn gather_inputs(
    catalog: &DataCatalog,
    store: &BTreeMap<u64, Vec<i64>>,
    queries: &[DataQuery],
    now: SimTime,
) -> Option<Vec<i64>> {
    let mut words = Vec::new();
    for query in queries {
        let (item, _) = airdnd_data::best_match(catalog, query, now)?;
        let payload = store.get(&item.id.raw())?;
        words.extend_from_slice(payload);
    }
    Some(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airdnd_data::{DataQuery, QualityDescriptor};
    use airdnd_task::{library, Program, ResourceRequirements, TaskId};

    fn task_with_gas(gas: u64) -> TaskSpec {
        TaskSpec::new(TaskId::new(1), "sum", library::sum_inputs().into_inner()).with_requirements(
            ResourceRequirements {
                gas,
                memory_bytes: 1 << 20,
                deadline: SimDuration::from_secs(2),
                ..Default::default()
            },
        )
    }

    fn stocked_catalog(now: SimTime) -> (DataCatalog, BTreeMap<u64, Vec<i64>>) {
        let mut catalog = DataCatalog::new(8);
        let id = catalog.insert(
            DataType::OccupancyGrid,
            32,
            QualityDescriptor::basic(now, 0.9, 2.0),
        );
        let mut store = BTreeMap::new();
        store.insert(id.raw(), vec![1, 2, 3, 4]);
        (catalog, store)
    }

    fn permissive_privacy() -> PrivacyPolicy<DataType> {
        PrivacyPolicy::new(PrivacyLevel::Raw)
    }

    #[test]
    fn admit_happy_path_gives_eta() {
        let exec = ExecutorSim::new(1_000_000, 1 << 30);
        let now = SimTime::from_secs(1);
        let (catalog, _) = stocked_catalog(now);
        let task = task_with_gas(500_000).with_input(DataQuery::of_type(DataType::OccupancyGrid));
        let admission = exec
            .admit(
                now,
                &task,
                &catalog,
                &permissive_privacy(),
                PrivacyLevel::Derived,
                2.0,
            )
            .unwrap();
        assert_eq!(admission.eta, now + SimDuration::from_millis(500));
        assert_eq!(admission.program.program(), &task.program);
    }

    #[test]
    fn admission_gates() {
        let now = SimTime::from_secs(1);
        let (catalog, _) = stocked_catalog(now);
        let privacy = permissive_privacy();
        let base = task_with_gas(1000).with_input(DataQuery::of_type(DataType::OccupancyGrid));

        let mut closed = ExecutorSim::new(1_000_000, 1 << 30);
        closed.set_accepting(false);
        assert_eq!(
            closed.admit(now, &base, &catalog, &privacy, PrivacyLevel::Derived, 2.0),
            Err(DeclineReason::NotAccepting)
        );

        let small = ExecutorSim::new(1_000_000, 1 << 10);
        assert_eq!(
            small.admit(now, &base, &catalog, &privacy, PrivacyLevel::Derived, 2.0),
            Err(DeclineReason::InsufficientMemory)
        );

        let exec = ExecutorSim::new(1_000_000, 1 << 30);
        let mut bad_program = base.clone();
        bad_program.program = Program::new(vec![airdnd_task::Instr::Pop], 0);
        assert_eq!(
            exec.admit(
                now,
                &bad_program,
                &catalog,
                &privacy,
                PrivacyLevel::Derived,
                2.0
            ),
            Err(DeclineReason::ProgramInvalid)
        );

        let mut wrong_data = base.clone();
        wrong_data.inputs[0].data_type = DataType::TrackList;
        assert_eq!(
            exec.admit(
                now,
                &wrong_data,
                &catalog,
                &privacy,
                PrivacyLevel::Derived,
                2.0
            ),
            Err(DeclineReason::DataUnavailable)
        );

        let strict = PrivacyPolicy::new(PrivacyLevel::Aggregate);
        assert_eq!(
            exec.admit(now, &base, &catalog, &strict, PrivacyLevel::Derived, 2.0),
            Err(DeclineReason::PrivacyViolation)
        );
    }

    #[test]
    fn overload_gate_uses_backlog() {
        let mut exec = ExecutorSim::new(1_000_000, 1 << 30);
        let now = SimTime::from_secs(1);
        let (catalog, _) = stocked_catalog(now);
        let task = task_with_gas(1000).with_input(DataQuery::of_type(DataType::OccupancyGrid));
        // 5 s of backlog vs 2 s deadline × factor 2 = 4 s bound → overload.
        exec.reserve(99, 5_000_000);
        assert_eq!(
            exec.admit(
                now,
                &task,
                &catalog,
                &permissive_privacy(),
                PrivacyLevel::Derived,
                2.0
            ),
            Err(DeclineReason::Overloaded)
        );
        exec.cancel(99);
        assert!(exec
            .admit(
                now,
                &task,
                &catalog,
                &permissive_privacy(),
                PrivacyLevel::Derived,
                2.0
            )
            .is_ok());
    }

    #[test]
    fn execute_runs_the_admitted_program() {
        let mut exec = ExecutorSim::new(1_000_000, 1 << 30);
        let now = SimTime::from_secs(1);
        let (catalog, store) = stocked_catalog(now);
        let task = task_with_gas(1_000_000).with_input(DataQuery::of_type(DataType::OccupancyGrid));
        let admission = exec
            .admit(
                now,
                &task,
                &catalog,
                &permissive_privacy(),
                PrivacyLevel::Derived,
                2.0,
            )
            .unwrap();
        exec.reserve(1, task.requirements.gas);
        let inputs = gather_inputs(&catalog, &store, &task.inputs, now).unwrap();
        let result = exec
            .execute(now, 1, &admission.program, task.requirements.gas, &inputs)
            .unwrap();
        assert_eq!(result.outputs, vec![10]);
        assert_eq!(exec.backlog_gas(), 0, "reservation released");
    }

    #[test]
    fn execute_runs_real_bytecode() {
        let mut exec = ExecutorSim::new(1_000_000, 1 << 30);
        let now = SimTime::from_secs(1);
        exec.reserve(1, 1_000_000);
        let result = exec
            .execute(now, 1, &library::sum_inputs(), 1_000_000, &[10, 20, 30])
            .unwrap();
        assert_eq!(result.outputs, vec![60]);
        assert!(result.gas_used > 0);
        assert!(result.finish > now);
        assert_eq!(exec.backlog_gas(), 0, "reservation released");
        assert_eq!(exec.totals().0, 1);
    }

    #[test]
    fn sequential_tasks_queue_on_busy_horizon() {
        let mut exec = ExecutorSim::new(1_000, 1 << 30); // slow: 1k gas/s
        let now = SimTime::ZERO;
        let program = library::sum_inputs();
        let r1 = exec.execute(now, 1, &program, 1_000_000, &[1]).unwrap();
        let r2 = exec.execute(now, 2, &program, 1_000_000, &[1]).unwrap();
        assert!(r2.finish > r1.finish, "second task starts after the first");
        let gap = r2.finish.saturating_since(r1.finish);
        assert!((gap.as_secs_f64() - r1.gas_used as f64 / 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn byzantine_executor_corrupts_outputs() {
        let mut honest = ExecutorSim::new(1_000_000, 1 << 30);
        let mut byz = ExecutorSim::new(1_000_000, 1 << 30);
        byz.set_byzantine(true);
        let program = library::sum_inputs();
        let h = honest
            .execute(SimTime::ZERO, 1, &program, 1_000_000, &[5, 5])
            .unwrap();
        let b = byz
            .execute(SimTime::ZERO, 1, &program, 1_000_000, &[5, 5])
            .unwrap();
        assert_ne!(h.outputs, b.outputs);
        assert_eq!(h.outputs, vec![10]);
    }

    #[test]
    fn trapping_task_charges_time() {
        let mut exec = ExecutorSim::new(1_000, 1 << 30);
        // Divide by zero traps immediately.
        let program = verify(Program::new(
            vec![
                airdnd_task::Instr::Push(1),
                airdnd_task::Instr::Push(0),
                airdnd_task::Instr::Div,
            ],
            0,
        ))
        .unwrap();
        let before = exec.eta(SimTime::ZERO, 0);
        let err = exec
            .execute(SimTime::ZERO, 1, &program, 5_000, &[])
            .unwrap_err();
        assert!(matches!(err, Trap::DivByZero { .. }));
        let after = exec.eta(SimTime::ZERO, 0);
        assert!(after > before, "trap still burned the declared budget");
    }

    #[test]
    fn gather_inputs_concatenates_in_query_order() {
        let now = SimTime::from_secs(1);
        let (mut catalog, mut store) = stocked_catalog(now);
        let id2 = catalog.insert(
            DataType::TrackList,
            16,
            QualityDescriptor::basic(now, 0.9, 2.0),
        );
        store.insert(id2.raw(), vec![9, 9]);
        let queries = [
            DataQuery::of_type(DataType::TrackList),
            DataQuery::of_type(DataType::OccupancyGrid),
        ];
        let words = gather_inputs(&catalog, &store, &queries, now).unwrap();
        assert_eq!(words, vec![9, 9, 1, 2, 3, 4]);
        // A query with no match yields None.
        let missing = [DataQuery::of_type(DataType::DetectionList)];
        assert!(gather_inputs(&catalog, &store, &missing, now).is_none());
    }
}
