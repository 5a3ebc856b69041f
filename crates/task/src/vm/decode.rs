//! The pre-decoded form the interpreter runs.
//!
//! [`verify`](super::verify()) lowers a program once into an [`Op`] array:
//!
//! * jump targets are resolved to op indices,
//! * every basic block opens with one [`Op::Charge`] carrying the summed
//!   [`gas_cost`] and instruction count of the block, so the hot loop pays
//!   one gas check per block instead of one per instruction,
//! * inside a block, `Push c` followed by `Load`, `Store`, `Add` or `Mul`
//!   becomes a single immediate op.
//!
//! A side table ([`Meter`]) keeps, per op, the gas and instruction count it
//! stands for and the original instruction index a trap reports. The
//! interpreter uses it when a block would cross the gas limit: it replays
//! that block op by op, charging each op before running it, which stops at
//! exactly the instruction where a per-instruction meter would stop.

use super::isa::{gas_cost, Instr, Program};

/// One pre-decoded operation. Jump targets are op indices; everything else
/// means what the [`Instr`] of the same name means. The variants repeat
/// [`Instr`]'s rather than wrap it so that the interpreter dispatches
/// through one flat jump table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Block header: charge the whole block's gas and instruction count.
    Charge {
        /// Summed gas of the block's instructions.
        gas: u32,
        /// Number of instructions in the block.
        steps: u32,
    },
    Push(i64),
    Pop,
    Dup,
    Swap,
    Over,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Neg,
    Abs,
    Min,
    Max,
    And,
    Or,
    Xor,
    Not,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Jmp(u32),
    Jz(u32),
    Jnz(u32),
    Load,
    Store,
    Input,
    InputLen,
    Output,
    /// A `Halt` instruction, or the end of the code.
    Halt,
    /// `Push c; Add`.
    AddImm(i64),
    /// `Push c; Mul`.
    MulImm(i64),
    /// `Push addr; Load`.
    LoadImm(i64),
    /// `Push addr; Store`.
    StoreImm(i64),
}

/// What one op stands for in the original program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Meter {
    /// Gas of the op's instructions (zero for [`Op::Charge`]).
    pub gas: u32,
    /// Number of instructions the op stands for.
    pub steps: u32,
    /// Index of the op's last instruction — the `pc` its traps report.
    pub pc: u32,
}

/// A decoded program: `ops[i]` is metered by `meter[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Decoded {
    pub ops: Vec<Op>,
    pub meter: Vec<Meter>,
}

/// Lowers `program` to ops. The program must have passed the verifier's
/// jump-target check: every target is at most `code.len()`.
pub(crate) fn decode(program: &Program) -> Decoded {
    let code = program.code();
    let n = code.len();
    // Block leaders: the entry, every jump target, and every instruction
    // after a jump or halt. Index `n` is the end of the code.
    let mut leader = vec![false; n + 1];
    leader[0] = true;
    for (pc, &instr) in code.iter().enumerate() {
        match instr {
            Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) => {
                leader[t as usize] = true;
                leader[pc + 1] = true;
            }
            Instr::Halt => leader[pc + 1] = true,
            _ => {}
        }
    }

    let mut ops = Vec::with_capacity(n + 2);
    let mut meter = Vec::with_capacity(n + 2);
    // Op index each leader decodes to (its charge op).
    let mut op_at = vec![0u32; n + 1];
    let mut charge = 0usize;
    let mut pc = 0usize;
    while pc < n {
        if leader[pc] {
            charge = ops.len();
            op_at[pc] = charge as u32;
            ops.push(Op::Charge { gas: 0, steps: 0 });
            meter.push(Meter {
                gas: 0,
                steps: 0,
                pc: pc as u32,
            });
        }
        let fusable = pc + 1 < n && !leader[pc + 1];
        let (op, len) = match (code[pc], fusable.then(|| code[pc + 1])) {
            (Instr::Push(c), Some(Instr::Add)) => (Op::AddImm(c), 2),
            (Instr::Push(c), Some(Instr::Mul)) => (Op::MulImm(c), 2),
            (Instr::Push(c), Some(Instr::Load)) => (Op::LoadImm(c), 2),
            (Instr::Push(c), Some(Instr::Store)) => (Op::StoreImm(c), 2),
            (instr, _) => (single(instr), 1),
        };
        let gas: u64 = code[pc..pc + len].iter().map(|&i| gas_cost(i)).sum();
        let gas = gas as u32; // at most 2 × the largest per-instruction cost
        ops.push(op);
        meter.push(Meter {
            gas,
            steps: len as u32,
            pc: (pc + len - 1) as u32,
        });
        if let Op::Charge {
            gas: block_gas,
            steps,
        } = &mut ops[charge]
        {
            // ≤ MAX_CODE_LEN × 4, far below u32::MAX.
            *block_gas += gas;
            *steps += len as u32;
        }
        pc += len;
    }
    // Running off the end (or jumping to it) halts without a step.
    op_at[n] = ops.len() as u32;
    ops.push(Op::Halt);
    meter.push(Meter {
        gas: 0,
        steps: 0,
        pc: n as u32,
    });

    for op in &mut ops {
        if let Op::Jmp(t) | Op::Jz(t) | Op::Jnz(t) = op {
            *t = op_at[*t as usize];
        }
    }
    Decoded { ops, meter }
}

/// The unfused op for one instruction (jump targets still instruction
/// indices; [`decode`] patches them).
fn single(instr: Instr) -> Op {
    match instr {
        Instr::Push(c) => Op::Push(c),
        Instr::Pop => Op::Pop,
        Instr::Dup => Op::Dup,
        Instr::Swap => Op::Swap,
        Instr::Over => Op::Over,
        Instr::Add => Op::Add,
        Instr::Sub => Op::Sub,
        Instr::Mul => Op::Mul,
        Instr::Div => Op::Div,
        Instr::Rem => Op::Rem,
        Instr::Neg => Op::Neg,
        Instr::Abs => Op::Abs,
        Instr::Min => Op::Min,
        Instr::Max => Op::Max,
        Instr::And => Op::And,
        Instr::Or => Op::Or,
        Instr::Xor => Op::Xor,
        Instr::Not => Op::Not,
        Instr::Shl => Op::Shl,
        Instr::Shr => Op::Shr,
        Instr::Eq => Op::Eq,
        Instr::Ne => Op::Ne,
        Instr::Lt => Op::Lt,
        Instr::Le => Op::Le,
        Instr::Gt => Op::Gt,
        Instr::Ge => Op::Ge,
        Instr::Jmp(t) => Op::Jmp(t),
        Instr::Jz(t) => Op::Jz(t),
        Instr::Jnz(t) => Op::Jnz(t),
        Instr::Load => Op::Load,
        Instr::Store => Op::Store,
        Instr::Input => Op::Input,
        Instr::InputLen => Op::InputLen,
        Instr::Output => Op::Output,
        Instr::Halt => Op::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Instr::*;

    fn ops(code: Vec<Instr>) -> Vec<Op> {
        decode(&Program::new(code, 4)).ops
    }

    #[test]
    fn blocks_open_with_their_summed_charge() {
        // Block 0: push, push, mul, output (1 + 1 + 4 + 2), then the end.
        assert_eq!(
            ops(vec![Push(2), Push(3), Mul, Output]),
            vec![
                Op::Charge { gas: 8, steps: 4 },
                Op::Push(2),
                Op::MulImm(3),
                Op::Output,
                Op::Halt,
            ]
        );
    }

    #[test]
    fn jumps_resolve_to_the_target_blocks_charge() {
        // Leaders: 0, 1 (jump target), 3 (after a jump), 5 (both).
        let code = vec![Push(5), Dup, Jz(5), Push(1), Jmp(1), Pop];
        assert_eq!(
            ops(code),
            vec![
                Op::Charge { gas: 1, steps: 1 },
                Op::Push(5),
                Op::Charge { gas: 2, steps: 2 },
                Op::Dup,
                Op::Jz(8),
                Op::Charge { gas: 2, steps: 2 },
                Op::Push(1),
                Op::Jmp(2),
                Op::Charge { gas: 1, steps: 1 },
                Op::Pop,
                Op::Halt,
            ]
        );
    }

    #[test]
    fn no_fusion_across_a_block_boundary() {
        // pc 1 (`add`) is a jump target, so `push 1; add` stays two ops.
        let decoded = ops(vec![Push(1), Add, Jmp(1)]);
        assert_eq!(decoded[1], Op::Push(1));
        assert_eq!(decoded[2], Op::Charge { gas: 2, steps: 2 });
        assert_eq!(decoded[3], Op::Add);
        assert_eq!(decoded[4], Op::Jmp(2));
    }

    #[test]
    fn fused_ops_report_their_last_instruction() {
        let d = decode(&Program::new(vec![Push(9), Load, Push(0), Store], 4));
        assert_eq!(d.ops[1], Op::LoadImm(9));
        assert_eq!(
            d.meter[1],
            Meter {
                gas: 4,
                steps: 2,
                pc: 1
            }
        );
        assert_eq!(d.ops[2], Op::StoreImm(0));
        assert_eq!(
            d.meter[2],
            Meter {
                gas: 4,
                steps: 2,
                pc: 3
            }
        );
    }

    #[test]
    fn jump_to_the_end_lands_on_the_final_halt() {
        let decoded = ops(vec![Jmp(1)]);
        assert_eq!(
            decoded,
            vec![Op::Charge { gas: 1, steps: 1 }, Op::Jmp(2), Op::Halt]
        );
    }
}
