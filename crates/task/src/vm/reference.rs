//! The per-instruction interpreter the pre-decoded one replaced, kept as
//! the test oracle: [`execute`](super::execute()) must agree with it
//! bit for bit — outputs, `gas_used`, `steps` and the exact [`Trap`] — on
//! every verified program, input and limit.
//!
//! The property tests below pin that, plus the verifier's safety claim
//! (the paper's RQ3): any program that verifies runs without panicking,
//! deterministically.

use super::exec::{ExecLimits, Execution, Trap};
use super::isa::{gas_cost, Instr};
use super::verify::VerifiedProgram;

/// Executes a verified program one instruction at a time, charging each
/// instruction's gas before running it.
pub(crate) fn execute(
    program: &VerifiedProgram,
    inputs: &[i64],
    limits: ExecLimits,
) -> Result<Execution, Trap> {
    let code = program.program().code();
    let mem_words = program.program().memory_words() as usize;
    let mut memory = vec![0i64; mem_words];
    let mut stack: Vec<i64> = Vec::with_capacity(program.max_stack() as usize);
    let mut outputs = Vec::new();
    let mut pc = 0usize;
    let mut gas: u64 = 0;
    let mut steps: u64 = 0;

    // Stack pops are safe without checks: the verifier proved heights.
    macro_rules! pop {
        () => {
            stack.pop().expect("verified program cannot underflow")
        };
    }

    while pc < code.len() {
        let instr = code[pc];
        gas += gas_cost(instr);
        if gas > limits.max_gas {
            return Err(Trap::OutOfGas {
                limit: limits.max_gas,
            });
        }
        steps += 1;
        let mut next = pc + 1;
        match instr {
            Instr::Push(c) => stack.push(c),
            Instr::Pop => {
                pop!();
            }
            Instr::Dup => {
                let a = *stack.last().expect("verified");
                stack.push(a);
            }
            Instr::Swap => {
                let n = stack.len();
                stack.swap(n - 1, n - 2);
            }
            Instr::Over => {
                let a = stack[stack.len() - 2];
                stack.push(a);
            }
            Instr::Add => {
                let b = pop!();
                let a = pop!();
                stack.push(a.wrapping_add(b));
            }
            Instr::Sub => {
                let b = pop!();
                let a = pop!();
                stack.push(a.wrapping_sub(b));
            }
            Instr::Mul => {
                let b = pop!();
                let a = pop!();
                stack.push(a.wrapping_mul(b));
            }
            Instr::Div => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(Trap::DivByZero { pc });
                }
                stack.push(a.wrapping_div(b));
            }
            Instr::Rem => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(Trap::DivByZero { pc });
                }
                stack.push(a.wrapping_rem(b));
            }
            Instr::Neg => {
                let a = pop!();
                stack.push(a.wrapping_neg());
            }
            Instr::Abs => {
                let a = pop!();
                stack.push(a.wrapping_abs());
            }
            Instr::Min => {
                let b = pop!();
                let a = pop!();
                stack.push(a.min(b));
            }
            Instr::Max => {
                let b = pop!();
                let a = pop!();
                stack.push(a.max(b));
            }
            Instr::And => {
                let b = pop!();
                let a = pop!();
                stack.push(a & b);
            }
            Instr::Or => {
                let b = pop!();
                let a = pop!();
                stack.push(a | b);
            }
            Instr::Xor => {
                let b = pop!();
                let a = pop!();
                stack.push(a ^ b);
            }
            Instr::Not => {
                let a = pop!();
                stack.push(!a);
            }
            Instr::Shl => {
                let s = pop!();
                let a = pop!();
                stack.push(a.wrapping_shl(s as u32 & 63));
            }
            Instr::Shr => {
                let s = pop!();
                let a = pop!();
                stack.push(a.wrapping_shr(s as u32 & 63));
            }
            Instr::Eq => {
                let b = pop!();
                let a = pop!();
                stack.push((a == b) as i64);
            }
            Instr::Ne => {
                let b = pop!();
                let a = pop!();
                stack.push((a != b) as i64);
            }
            Instr::Lt => {
                let b = pop!();
                let a = pop!();
                stack.push((a < b) as i64);
            }
            Instr::Le => {
                let b = pop!();
                let a = pop!();
                stack.push((a <= b) as i64);
            }
            Instr::Gt => {
                let b = pop!();
                let a = pop!();
                stack.push((a > b) as i64);
            }
            Instr::Ge => {
                let b = pop!();
                let a = pop!();
                stack.push((a >= b) as i64);
            }
            Instr::Jmp(t) => next = t as usize,
            Instr::Jz(t) => {
                if pop!() == 0 {
                    next = t as usize;
                }
            }
            Instr::Jnz(t) => {
                if pop!() != 0 {
                    next = t as usize;
                }
            }
            Instr::Load => {
                let addr = pop!();
                let Some(&v) = usize::try_from(addr).ok().and_then(|a| memory.get(a)) else {
                    return Err(Trap::MemOutOfBounds { pc, addr });
                };
                stack.push(v);
            }
            Instr::Store => {
                let addr = pop!();
                let value = pop!();
                let Some(slot) = usize::try_from(addr).ok().and_then(|a| memory.get_mut(a)) else {
                    return Err(Trap::MemOutOfBounds { pc, addr });
                };
                *slot = value;
            }
            Instr::Input => {
                let index = pop!();
                let Some(&v) = usize::try_from(index).ok().and_then(|i| inputs.get(i)) else {
                    return Err(Trap::InputOutOfBounds { pc, index });
                };
                stack.push(v);
            }
            Instr::InputLen => stack.push(inputs.len() as i64),
            Instr::Output => {
                let v = pop!();
                if outputs.len() >= limits.max_outputs {
                    return Err(Trap::OutputLimit { pc });
                }
                outputs.push(v);
            }
            Instr::Halt => break,
        }
        pc = next;
    }
    Ok(Execution {
        outputs,
        gas_used: gas,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::vm::{verify, Program, MAX_STACK};
    use crate::wire::tests::arb_instr;
    use proptest::Strategy;
    use proptest::TestRng;

    /// Limits every random program is first run under; looping programs
    /// run out of gas here.
    const GENEROUS: ExecLimits = ExecLimits {
        max_gas: 4_000,
        max_outputs: 1_000,
    };

    /// Runs both interpreters and requires identical results.
    fn agree(
        program: &VerifiedProgram,
        inputs: &[i64],
        limits: ExecLimits,
    ) -> Result<Execution, Trap> {
        let fast = crate::vm::execute(program, inputs, limits);
        let reference = super::execute(program, inputs, limits);
        assert_eq!(
            fast,
            reference,
            "program {:?}, inputs {inputs:?}, limits {limits:?}",
            program.program()
        );
        fast
    }

    /// Gas limits around a run's outcome: 0, the gas at which it finished
    /// or trapped and one below it, and random points in between.
    fn limits_around(
        program: &VerifiedProgram,
        inputs: &[i64],
        outcome: &Result<Execution, Trap>,
        rng: &mut TestRng,
    ) -> Vec<u64> {
        let top = match outcome {
            Ok(exec) => exec.gas_used,
            Err(Trap::OutOfGas { limit }) => *limit,
            Err(_) => {
                // A runtime trap: the least limit that still reaches it.
                let (mut lo, mut hi) = (0, GENEROUS.max_gas);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let limits = ExecLimits {
                        max_gas: mid,
                        ..GENEROUS
                    };
                    match super::execute(program, inputs, limits) {
                        Err(Trap::OutOfGas { .. }) => lo = mid + 1,
                        _ => hi = mid,
                    }
                }
                lo
            }
        };
        let mut limits = vec![0, top.saturating_sub(1), top, top + 1];
        limits.extend((0..4).map(|_| rng.below(top + 1)));
        limits
    }

    /// Checks `program` on `inputs` against the reference at gas limits
    /// around its outcome and at small output limits.
    fn differential(program: &VerifiedProgram, inputs: &[i64], rng: &mut TestRng) {
        let outcome = agree(program, inputs, GENEROUS);
        for max_gas in limits_around(program, inputs, &outcome, rng) {
            for max_outputs in [0, 1, 3, 1_000] {
                let limits = ExecLimits {
                    max_gas,
                    max_outputs,
                };
                let run = agree(program, inputs, limits);
                // A run that finished keeps its result under any limits
                // it fits in.
                if let Ok(exec) = &outcome {
                    if max_gas >= exec.gas_used && max_outputs >= exec.outputs.len() {
                        assert_eq!(run, outcome);
                    }
                }
            }
        }
    }

    /// A random program that always verifies: every instruction is chosen
    /// so the stack height stays in `0..=6`, and jumps are emitted only at
    /// height 0 and target instructions reached at height 0, so every join
    /// agrees. Constants, addresses and input indices are mostly small, so
    /// loops, traps and out-of-bounds accesses all occur.
    fn arb_verifying_program(rng: &mut TestRng) -> Program {
        use Instr::*;
        let len = 1 + rng.below(40) as usize;
        let mut code = Vec::with_capacity(len);
        let mut height_at = Vec::with_capacity(len + 1);
        let mut h = 0u32;
        while code.len() < len {
            height_at.push(h);
            let instr = loop {
                let instr = match rng.below(10) {
                    0..=2 => Push(rng.below(8) as i64 - 2),
                    3 if rng.below(4) == 0 => Push(rng.next_u64() as i64),
                    4 if h == 1 => [Jz(u32::MAX), Jnz(u32::MAX)][rng.below(2) as usize],
                    5 if h == 0 => [Jmp(u32::MAX), Halt][rng.below(2) as usize],
                    _ => arb_instr().generate(rng),
                };
                let (pops, pushes) = instr.stack_effect();
                let jumps = matches!(instr, Jmp(_) | Jz(_) | Jnz(_));
                let after = h + pushes;
                if pops <= h && after - pops <= 6 && (!jumps || after == pops) {
                    h = after - pops;
                    break instr;
                }
            };
            code.push(instr);
        }
        height_at.push(h);
        // Resolve jumps to a random instruction reached at height 0 (the
        // end of the code counts when the code falls off it at height 0).
        let zero: Vec<u32> = (0..=len as u32)
            .filter(|&pc| height_at[pc as usize] == 0)
            .collect();
        for instr in &mut code {
            if let Jmp(t) | Jz(t) | Jnz(t) = instr {
                *t = zero[rng.below(zero.len() as u64) as usize];
            }
        }
        Program::new(code, rng.below(5) as u32)
    }

    fn arb_inputs(rng: &mut TestRng) -> Vec<i64> {
        (0..rng.below(6)).map(|_| rng.below(7) as i64 - 2).collect()
    }

    /// A random program of up to `max_len` raw [`arb_instr`] draws; most
    /// fail verification.
    fn arb_program(rng: &mut TestRng, max_len: u64) -> Program {
        let len = 1 + rng.below(max_len);
        let code = (0..len).map(|_| arb_instr().generate(rng)).collect();
        Program::new(code, rng.below(4) as u32)
    }

    /// RQ3: whatever random bytecode passes the verifier runs without
    /// panicking, and the same run twice gives the same result.
    #[test]
    fn verified_random_programs_never_panic_and_are_deterministic() {
        let mut rng = TestRng::for_case(module_path!(), 3);
        let mut verified = 0;
        for _ in 0..20_000 {
            if let Ok(program) = verify(arb_program(&mut rng, 24)) {
                verified += 1;
                let inputs = arb_inputs(&mut rng);
                for max_gas in [0, rng.below(5_000), 5_000] {
                    let limits = ExecLimits {
                        max_gas,
                        max_outputs: 8,
                    };
                    let first = crate::vm::execute(&program, &inputs, limits);
                    assert_eq!(first, crate::vm::execute(&program, &inputs, limits));
                }
            }
        }
        assert!(verified > 100, "only {verified} programs verified");
    }

    #[test]
    fn random_arb_instr_programs_match_the_reference() {
        // Draw enough that many verify, and compare each one that does.
        let mut rng = TestRng::for_case(module_path!(), 0);
        let mut verified = 0;
        for _ in 0..20_000 {
            if let Ok(program) = verify(arb_program(&mut rng, 8)) {
                verified += 1;
                let inputs = arb_inputs(&mut rng);
                differential(&program, &inputs, &mut rng);
            }
        }
        assert!(verified > 500, "only {verified} programs verified");
    }

    #[test]
    fn random_verifying_programs_match_the_reference() {
        let mut rng = TestRng::for_case(module_path!(), 1);
        let (mut ok, mut traps, mut out_of_gas) = (0, 0, 0);
        for _ in 0..2_000 {
            let program = verify(arb_verifying_program(&mut rng))
                .expect("generator emits verifying programs");
            let inputs = arb_inputs(&mut rng);
            match super::execute(&program, &inputs, GENEROUS) {
                Ok(_) => ok += 1,
                Err(Trap::OutOfGas { .. }) => out_of_gas += 1,
                Err(_) => traps += 1,
            }
            differential(&program, &inputs, &mut rng);
        }
        // The generator reaches every kind of ending.
        assert!(
            ok > 200 && traps > 200 && out_of_gas > 50,
            "{ok} ok, {traps} traps, {out_of_gas} out of gas"
        );
    }

    #[test]
    fn library_kernels_match_the_reference_at_every_gas_limit() {
        let mut rng = TestRng::for_case(module_path!(), 2);
        let kernels = [
            library::sum_inputs(),
            library::echo_inputs(),
            library::grid_fuse(3),
            library::count_above(1),
            library::matmul(2),
            library::checksum(),
            library::burn_and_echo(2),
        ];
        for kernel in &kernels {
            let inputs: Vec<i64> = (0..8).map(|_| rng.next_u64() as i64 >> 40).collect();
            let full = agree(kernel, &inputs, ExecLimits::default()).expect("kernels run");
            for max_gas in 0..=full.gas_used + 1 {
                let limits = ExecLimits {
                    max_gas,
                    max_outputs: 65_536,
                };
                let run = agree(kernel, &inputs, limits);
                assert_eq!(run.is_ok(), max_gas >= full.gas_used, "{limits:?}");
            }
            for max_outputs in 0..=full.outputs.len() {
                let limits = ExecLimits {
                    max_gas: full.gas_used,
                    max_outputs,
                };
                let run = agree(kernel, &inputs, limits);
                assert_eq!(run.is_ok(), max_outputs == full.outputs.len(), "{limits:?}");
            }
        }
    }

    #[test]
    fn deepest_stack_matches_the_reference() {
        // MAX_STACK pushes then MAX_STACK - 1 adds: the full stack is used.
        let mut code = vec![Instr::Push(1); MAX_STACK];
        code.extend(vec![Instr::Add; MAX_STACK - 1]);
        code.push(Instr::Output);
        let program = verify(Program::new(code, 0)).unwrap();
        let out = agree(&program, &[], ExecLimits::default()).unwrap();
        assert_eq!(out.outputs, vec![MAX_STACK as i64]);
    }
}
