//! The TaskVM interpreter: gas-metered execution of verified programs.
//!
//! Execution is fully deterministic: the same program, inputs and limits
//! produce the same outputs and gas usage on any node — which is what lets
//! AirDnD verify results by redundant execution (RQ3).
//!
//! [`execute`] runs the pre-decoded ops that [`verify`](super::verify())
//! built. The operand stack is a fixed power-of-two array indexed under a
//! mask, with the top word kept in a local. Gas and steps are charged once
//! per basic block, at the block's charge op. A block whose charge would
//! cross `max_gas` is run op by op instead, through the same handlers,
//! each op charged before it runs. Such a block cannot complete, so the
//! run ends inside it at exactly the instruction a per-instruction meter
//! stops at: the same [`Trap::OutOfGas`], or the same earlier runtime trap
//! with the same `pc`. Outputs, `gas_used`, `steps` and every [`Trap`] are
//! therefore bit-identical to charging and running one instruction at a
//! time.

use super::decode::{Decoded, Meter, Op};
use super::isa::MAX_STACK;
use super::verify::VerifiedProgram;
use std::error::Error;
use std::fmt;

/// Runtime resource limits for one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum gas; execution traps with [`Trap::OutOfGas`] beyond it.
    pub max_gas: u64,
    /// Maximum output words a program may emit.
    pub max_outputs: usize,
}

impl Default for ExecLimits {
    /// 10 M gas and 64 Ki output words — generous for perception kernels.
    fn default() -> Self {
        ExecLimits {
            max_gas: 10_000_000,
            max_outputs: 65_536,
        }
    }
}

/// A successful execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Execution {
    /// The program's output stream.
    pub outputs: Vec<i64>,
    /// Gas consumed.
    pub gas_used: u64,
    /// Instructions executed.
    pub steps: u64,
}

/// A runtime failure. Traps abort the execution; no partial outputs are
/// returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// The gas limit was exhausted.
    OutOfGas {
        /// The configured limit.
        limit: u64,
    },
    /// Division or remainder by zero.
    DivByZero {
        /// Instruction index.
        pc: usize,
    },
    /// Memory access outside the declared region.
    MemOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// The offending address.
        addr: i64,
    },
    /// Input index outside the provided inputs.
    InputOutOfBounds {
        /// Instruction index.
        pc: usize,
        /// The offending index.
        index: i64,
    },
    /// The program emitted more than `max_outputs` words.
    OutputLimit {
        /// Instruction index.
        pc: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfGas { limit } => write!(f, "out of gas (limit {limit})"),
            Trap::DivByZero { pc } => write!(f, "division by zero at {pc}"),
            Trap::MemOutOfBounds { pc, addr } => {
                write!(f, "memory access {addr} out of bounds at {pc}")
            }
            Trap::InputOutOfBounds { pc, index } => {
                write!(f, "input index {index} out of bounds at {pc}")
            }
            Trap::OutputLimit { pc } => write!(f, "output limit exceeded at {pc}"),
        }
    }
}

impl Error for Trap {}

/// Operand-stack slots: a power of two covering every height the verifier
/// allows, so masked indexing needs no bounds check and cannot panic.
const STACK_SLOTS: usize = MAX_STACK.next_power_of_two();
const SLOT_MASK: usize = STACK_SLOTS - 1;

/// Executes a verified program against `inputs`.
///
/// Runs the program's pre-decoded ops (see [`verify`](super::verify())):
/// gas and steps are charged once per basic block, and a block that would
/// cross `limits.max_gas` is replayed op by op so that the result — the
/// outputs, `gas_used`, `steps`, or the exact [`Trap`] — is what charging
/// every instruction before running it gives.
///
/// # Errors
///
/// Returns a [`Trap`] on any runtime failure; see the trap variants.
pub fn execute(
    program: &VerifiedProgram,
    inputs: &[i64],
    limits: ExecLimits,
) -> Result<Execution, Trap> {
    let Decoded { ops, meter } = program.decoded();
    let mut stack = [0; STACK_SLOTS];
    let mut memory = vec![0; program.program().memory_words() as usize];
    let mut outputs = Vec::new();
    let mut vm = Machine {
        ops,
        meter,
        limits,
        gas: 0,
        steps: 0,
        tos: 0,
        sp: 0,
        stack: &mut stack,
        memory: &mut memory,
        inputs,
        outputs: &mut outputs,
    };
    if let Stop::Crossing(ip) = vm.run::<false>(0)? {
        // The block at `ip` would cross the limit: replay it op by op. It
        // cannot complete (its total is over budget), so this ends in the
        // first trap — out of gas, or a runtime trap met before that point.
        vm.run::<true>(ip + 1)?;
    }
    let (gas_used, steps) = (vm.gas, vm.steps);
    Ok(Execution {
        outputs,
        gas_used,
        steps,
    })
}

/// The original instruction index of the op at `ip`, for traps only: the
/// hot path never reads the side table.
#[cold]
fn pc(meter: &[Meter], ip: usize) -> usize {
    meter[ip].pc as usize
}

/// Why [`Machine::run`] returned without a trap.
enum Stop {
    /// The program halted.
    Halted,
    /// The block whose charge op is at this index would cross the limit.
    Crossing(usize),
}

/// Interpreter state for one execution. It holds only scalars and borrows,
/// and no pointer into it escapes (trap paths call the free [`pc`]), so
/// the optimiser can keep the hot fields in registers.
struct Machine<'a> {
    ops: &'a [Op],
    meter: &'a [Meter],
    limits: ExecLimits,
    gas: u64,
    steps: u64,
    /// The top of stack, kept out of memory (meaningless when `sp == 0`).
    tos: i64,
    /// Stack height.
    sp: usize,
    /// The words below the top: `stack[sp - 2]` is the second from the top.
    stack: &'a mut [i64; STACK_SLOTS],
    memory: &'a mut [i64],
    inputs: &'a [i64],
    outputs: &'a mut Vec<i64>,
}

impl Machine<'_> {
    #[inline(always)]
    fn push(&mut self, v: i64) {
        self.stack[self.sp.wrapping_sub(1) & SLOT_MASK] = self.tos;
        self.tos = v;
        self.sp = self.sp.wrapping_add(1);
    }

    #[inline(always)]
    fn pop(&mut self) -> i64 {
        let v = self.tos;
        self.sp = self.sp.wrapping_sub(1);
        self.tos = self.stack[self.sp.wrapping_sub(1) & SLOT_MASK];
        v
    }

    /// The word below the top of stack.
    #[inline(always)]
    fn second(&mut self) -> &mut i64 {
        &mut self.stack[self.sp.wrapping_sub(2) & SLOT_MASK]
    }

    /// `[a, b] → [f(a, b)]`.
    #[inline(always)]
    fn binary(&mut self, f: impl FnOnce(i64, i64) -> i64) {
        let a = *self.second();
        self.sp = self.sp.wrapping_sub(1);
        self.tos = f(a, self.tos);
    }

    #[inline(always)]
    fn load(&self, addr: i64) -> Option<i64> {
        let a = usize::try_from(addr).ok()?;
        self.memory.get(a).copied()
    }

    #[inline(always)]
    fn store(&mut self, addr: i64, value: i64) -> Option<()> {
        let a = usize::try_from(addr).ok()?;
        *self.memory.get_mut(a)? = value;
        Some(())
    }

    /// Runs from op `ip` until the program halts or traps. Unmetered, it
    /// charges whole blocks and stops before one that would cross the
    /// limit; metered, it charges every op before running it.
    #[inline(always)]
    fn run<const METERED: bool>(&mut self, mut ip: usize) -> Result<Stop, Trap> {
        loop {
            if METERED {
                let m = self.meter[ip];
                self.gas += u64::from(m.gas);
                if self.gas > self.limits.max_gas {
                    return Err(Trap::OutOfGas {
                        limit: self.limits.max_gas,
                    });
                }
                self.steps += u64::from(m.steps);
            }
            match self.ops[ip] {
                Op::Charge { gas, steps } => {
                    if !METERED {
                        if u64::from(gas) > self.limits.max_gas - self.gas {
                            return Ok(Stop::Crossing(ip));
                        }
                        self.gas += u64::from(gas);
                        self.steps += u64::from(steps);
                    }
                }
                Op::Push(c) => self.push(c),
                Op::Pop => {
                    self.pop();
                }
                Op::Dup => self.push(self.tos),
                Op::Swap => {
                    let b = self.tos;
                    self.tos = std::mem::replace(self.second(), b);
                }
                Op::Over => {
                    let a = *self.second();
                    self.push(a);
                }
                Op::Add => self.binary(i64::wrapping_add),
                Op::Sub => self.binary(i64::wrapping_sub),
                Op::Mul => self.binary(i64::wrapping_mul),
                Op::Div => {
                    if self.tos == 0 {
                        return Err(Trap::DivByZero {
                            pc: pc(self.meter, ip),
                        });
                    }
                    self.binary(i64::wrapping_div);
                }
                Op::Rem => {
                    if self.tos == 0 {
                        return Err(Trap::DivByZero {
                            pc: pc(self.meter, ip),
                        });
                    }
                    self.binary(i64::wrapping_rem);
                }
                Op::Neg => self.tos = self.tos.wrapping_neg(),
                Op::Abs => self.tos = self.tos.wrapping_abs(),
                Op::Min => self.binary(i64::min),
                Op::Max => self.binary(i64::max),
                Op::And => self.binary(|a, b| a & b),
                Op::Or => self.binary(|a, b| a | b),
                Op::Xor => self.binary(|a, b| a ^ b),
                Op::Not => self.tos = !self.tos,
                Op::Shl => self.binary(|a, s| a.wrapping_shl(s as u32 & 63)),
                Op::Shr => self.binary(|a, s| a.wrapping_shr(s as u32 & 63)),
                Op::Eq => self.binary(|a, b| (a == b) as i64),
                Op::Ne => self.binary(|a, b| (a != b) as i64),
                Op::Lt => self.binary(|a, b| (a < b) as i64),
                Op::Le => self.binary(|a, b| (a <= b) as i64),
                Op::Gt => self.binary(|a, b| (a > b) as i64),
                Op::Ge => self.binary(|a, b| (a >= b) as i64),
                Op::Jmp(t) => {
                    ip = t as usize;
                    continue;
                }
                Op::Jz(t) => {
                    if self.pop() == 0 {
                        ip = t as usize;
                        continue;
                    }
                }
                Op::Jnz(t) => {
                    if self.pop() != 0 {
                        ip = t as usize;
                        continue;
                    }
                }
                Op::Load => {
                    let addr = self.tos;
                    self.tos = self.load(addr).ok_or_else(|| Trap::MemOutOfBounds {
                        pc: pc(self.meter, ip),
                        addr,
                    })?;
                }
                Op::Store => {
                    let addr = self.pop();
                    let value = self.pop();
                    self.store(addr, value)
                        .ok_or_else(|| Trap::MemOutOfBounds {
                            pc: pc(self.meter, ip),
                            addr,
                        })?;
                }
                Op::Input => {
                    let index = self.tos;
                    self.tos = usize::try_from(index)
                        .ok()
                        .and_then(|i| self.inputs.get(i).copied())
                        .ok_or_else(|| Trap::InputOutOfBounds {
                            pc: pc(self.meter, ip),
                            index,
                        })?;
                }
                Op::InputLen => self.push(self.inputs.len() as i64),
                Op::Output => {
                    let v = self.pop();
                    if self.outputs.len() >= self.limits.max_outputs {
                        return Err(Trap::OutputLimit {
                            pc: pc(self.meter, ip),
                        });
                    }
                    self.outputs.push(v);
                }
                Op::Halt => return Ok(Stop::Halted),
                Op::AddImm(c) => self.tos = self.tos.wrapping_add(c),
                Op::MulImm(c) => self.tos = self.tos.wrapping_mul(c),
                Op::LoadImm(addr) => {
                    let v = self.load(addr).ok_or_else(|| Trap::MemOutOfBounds {
                        pc: pc(self.meter, ip),
                        addr,
                    })?;
                    self.push(v);
                }
                Op::StoreImm(addr) => {
                    let value = self.pop();
                    self.store(addr, value)
                        .ok_or_else(|| Trap::MemOutOfBounds {
                            pc: pc(self.meter, ip),
                            addr,
                        })?;
                }
            }
            ip += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::isa::{Instr, Instr::*, Program};
    use crate::vm::verify::verify;

    fn run(code: Vec<Instr>, mem: u32, inputs: &[i64]) -> Result<Execution, Trap> {
        let v = verify(Program::new(code, mem)).expect("test programs verify");
        execute(&v, inputs, ExecLimits::default())
    }

    #[test]
    fn arithmetic_basics() {
        let out = run(vec![Push(7), Push(5), Sub, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![2]);
        let out = run(vec![Push(7), Push(5), Mul, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![35]);
        let out = run(vec![Push(-7), Abs, Output, Push(3), Neg, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![7, -3]);
        let out = run(
            vec![Push(9), Push(4), Div, Output, Push(9), Push(4), Rem, Output],
            0,
            &[],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![2, 1]);
    }

    #[test]
    fn comparisons_and_logic() {
        let out = run(
            vec![
                Push(3),
                Push(5),
                Lt,
                Output,
                Push(3),
                Push(5),
                Ge,
                Output,
                Push(0b1100),
                Push(0b1010),
                And,
                Output,
                Push(0b1100),
                Push(0b1010),
                Xor,
                Output,
                Push(1),
                Push(3),
                Shl,
                Output,
            ],
            0,
            &[],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![1, 0, 0b1000, 0b0110, 8]);
    }

    #[test]
    fn stack_shuffles() {
        let out = run(vec![Push(1), Push(2), Swap, Output, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![1, 2]);
        let out = run(vec![Push(1), Push(2), Over, Output, Output, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![1, 2, 1]);
    }

    #[test]
    fn memory_round_trip() {
        let out = run(
            vec![
                Push(42),
                Push(3),
                Store,
                Push(3),
                Load,
                Output,
                Push(0),
                Load,
                Output,
            ],
            8,
            &[],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![42, 0], "memory is zero-initialized");
    }

    #[test]
    fn inputs_are_readable() {
        let out = run(
            vec![
                InputLen,
                Output,
                Push(0),
                Input,
                Push(2),
                Input,
                Add,
                Output,
            ],
            0,
            &[10, 20, 30],
        )
        .unwrap();
        assert_eq!(out.outputs, vec![3, 40]);
    }

    #[test]
    fn loop_sums_inputs() {
        // acc lives in mem[0], i in mem[1]; while i < len: acc += input[i].
        let code = vec![
            Push(1),
            Load,
            InputLen,
            Ge,
            Jnz(20), // 0..=4   exit when i >= len
            Push(0),
            Load,
            Push(1),
            Load,
            Input,
            Add,
            Push(0),
            Store, // 5..=12  acc += input[i]
            Push(1),
            Load,
            Push(1),
            Add,
            Push(1),
            Store,  // 13..=18  i += 1
            Jmp(0), // 19
            Push(0),
            Load,
            Output, // 20..=22  emit acc
        ];
        let out = run(code, 2, &[5, 6, 7, 8]).unwrap();
        assert_eq!(out.outputs, vec![26]);
    }

    #[test]
    fn div_by_zero_traps() {
        assert_eq!(
            run(vec![Push(1), Push(0), Div, Output], 0, &[]),
            Err(Trap::DivByZero { pc: 2 })
        );
        assert_eq!(
            run(vec![Push(1), Push(0), Rem, Output], 0, &[]),
            Err(Trap::DivByZero { pc: 2 })
        );
    }

    #[test]
    fn memory_bounds_trap() {
        let r = run(vec![Push(99), Load, Output], 8, &[]);
        assert_eq!(r, Err(Trap::MemOutOfBounds { pc: 1, addr: 99 }));
        let r = run(vec![Push(1), Push(-1), Store], 8, &[]);
        assert_eq!(r, Err(Trap::MemOutOfBounds { pc: 2, addr: -1 }));
    }

    #[test]
    fn input_bounds_trap() {
        let r = run(vec![Push(5), Input, Output], 0, &[1, 2]);
        assert_eq!(r, Err(Trap::InputOutOfBounds { pc: 1, index: 5 }));
        let r = run(vec![Push(-1), Input, Output], 0, &[1, 2]);
        assert_eq!(r, Err(Trap::InputOutOfBounds { pc: 1, index: -1 }));
    }

    #[test]
    fn gas_limit_stops_infinite_loop() {
        let v = verify(Program::new(vec![Jmp(0)], 0)).unwrap();
        let r = execute(
            &v,
            &[],
            ExecLimits {
                max_gas: 1_000,
                max_outputs: 16,
            },
        );
        assert_eq!(r, Err(Trap::OutOfGas { limit: 1_000 }));
    }

    #[test]
    fn output_limit_enforced() {
        let code = vec![Push(1), Output, Jmp(0)];
        let v = verify(Program::new(code, 0)).unwrap();
        let r = execute(
            &v,
            &[],
            ExecLimits {
                max_gas: 1_000_000,
                max_outputs: 3,
            },
        );
        assert_eq!(r, Err(Trap::OutputLimit { pc: 1 }));
    }

    #[test]
    fn gas_accounting_matches_costs() {
        let out = run(vec![Push(2), Push(3), Mul, Output], 0, &[]).unwrap();
        // push(1) + push(1) + mul(4) + output(2) = 8
        assert_eq!(out.gas_used, 8);
        assert_eq!(out.steps, 4);
    }

    #[test]
    fn falling_off_the_end_halts_cleanly() {
        let out = run(vec![Push(1), Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![1]);
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        let out = run(vec![Push(i64::MAX), Push(1), Add, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![i64::MIN]);
        let out = run(vec![Push(i64::MIN), Neg, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![i64::MIN]);
        let out = run(vec![Push(i64::MIN), Push(-1), Div, Output], 0, &[]).unwrap();
        assert_eq!(out.outputs, vec![i64::MIN]);
    }

    #[test]
    fn determinism() {
        let code = vec![Push(0), Input, Push(1), Input, Mul, Output];
        let a = run(code.clone(), 0, &[123, 456]).unwrap();
        let b = run(code, 0, &[123, 456]).unwrap();
        assert_eq!(a, b);
    }
}
