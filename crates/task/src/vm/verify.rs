//! Static verification: the receiving node's safety check.
//!
//! Verification proves, before running a single instruction:
//!
//! * program and memory sizes are within VM limits,
//! * every jump target is a valid instruction index (or one past the end,
//!   which is a clean halt),
//! * the operand stack can never underflow or exceed [`MAX_STACK`], using
//!   a fixed-point dataflow over stack *heights* — every join point must
//!   agree on the height, exactly like JVM bytecode verification.
//!
//! A [`VerifiedProgram`] is the proof-carrying result, and the only thing
//! the interpreter accepts. It also carries the program's pre-decoded
//! form, built once here: jump targets resolved to op indices, each basic
//! block opened by one charge of its summed gas and instruction count, and
//! `Push c` fused with a following `Load`/`Store`/`Add`/`Mul`. Because the
//! stack heights are proven, the interpreter keeps its operand stack in a
//! fixed-size array with masked indexing and no per-op height checks.

use super::decode::{decode, Decoded};
use super::isa::{Instr, Program, MAX_CODE_LEN, MAX_MEMORY_WORDS, MAX_STACK};
use std::error::Error;
use std::fmt;

/// Why verification rejected a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has no instructions.
    EmptyProgram,
    /// More instructions than [`MAX_CODE_LEN`].
    CodeTooLong(usize),
    /// Declared memory exceeds [`MAX_MEMORY_WORDS`].
    MemoryTooLarge(u32),
    /// A jump at `pc` targets past the end of the program.
    InvalidJumpTarget {
        /// Instruction index of the offending jump.
        pc: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// The stack would underflow at `pc`.
    StackUnderflow {
        /// Instruction index where the underflow occurs.
        pc: usize,
    },
    /// The stack would exceed [`MAX_STACK`] at `pc`.
    StackOverflow {
        /// Instruction index where the overflow occurs.
        pc: usize,
    },
    /// Two control-flow paths reach `pc` with different stack heights.
    InconsistentStack {
        /// Instruction index of the join point.
        pc: usize,
        /// Height recorded first.
        expected: u32,
        /// Height on the conflicting path.
        found: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyProgram => write!(f, "program has no instructions"),
            VerifyError::CodeTooLong(n) => {
                write!(f, "program has {n} instructions (max {MAX_CODE_LEN})")
            }
            VerifyError::MemoryTooLarge(w) => {
                write!(
                    f,
                    "program declares {w} memory words (max {MAX_MEMORY_WORDS})"
                )
            }
            VerifyError::InvalidJumpTarget { pc, target } => {
                write!(f, "jump at {pc} targets invalid index {target}")
            }
            VerifyError::StackUnderflow { pc } => write!(f, "stack underflow at {pc}"),
            VerifyError::StackOverflow { pc } => write!(f, "stack overflow at {pc}"),
            VerifyError::InconsistentStack {
                pc,
                expected,
                found,
            } => {
                write!(
                    f,
                    "inconsistent stack height at {pc}: {expected} vs {found}"
                )
            }
        }
    }
}

impl Error for VerifyError {}

/// A program that passed verification; the only thing the interpreter runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedProgram {
    program: Program,
    max_stack: u32,
    decoded: Decoded,
}

impl VerifiedProgram {
    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The proven maximum operand-stack height.
    pub fn max_stack(&self) -> u32 {
        self.max_stack
    }

    /// The pre-decoded ops the interpreter runs.
    pub(crate) fn decoded(&self) -> &Decoded {
        &self.decoded
    }

    /// Consumes the proof, returning the raw program.
    pub fn into_inner(self) -> Program {
        self.program
    }
}

/// Verifies a program; see the module docs for what is proven.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found.
pub fn verify(program: Program) -> Result<VerifiedProgram, VerifyError> {
    let code = program.code();
    if code.is_empty() {
        return Err(VerifyError::EmptyProgram);
    }
    if code.len() > MAX_CODE_LEN {
        return Err(VerifyError::CodeTooLong(code.len()));
    }
    if program.memory_words() > MAX_MEMORY_WORDS {
        return Err(VerifyError::MemoryTooLarge(program.memory_words()));
    }
    let end = code.len() as u32; // jumping to `end` is a clean halt
    for (pc, &instr) in code.iter().enumerate() {
        if let Instr::Jmp(t) | Instr::Jz(t) | Instr::Jnz(t) = instr {
            if t > end {
                return Err(VerifyError::InvalidJumpTarget { pc, target: t });
            }
        }
    }

    // Dataflow over stack heights. heights[pc] = Some(h) once reached.
    let mut heights: Vec<Option<u32>> = vec![None; code.len() + 1];
    heights[0] = Some(0);
    let mut worklist = vec![0usize];
    let mut max_seen = 0u32;
    let merge = |heights: &mut Vec<Option<u32>>,
                 worklist: &mut Vec<usize>,
                 pc: usize,
                 h: u32|
     -> Result<(), VerifyError> {
        match heights[pc] {
            None => {
                heights[pc] = Some(h);
                if pc < code.len() {
                    worklist.push(pc);
                }
                Ok(())
            }
            Some(existing) if existing == h => Ok(()),
            Some(existing) => Err(VerifyError::InconsistentStack {
                pc,
                expected: existing,
                found: h,
            }),
        }
    };
    while let Some(pc) = worklist.pop() {
        let h = heights[pc].expect("worklist entries are reached");
        let instr = code[pc];
        let (pops, pushes) = instr.stack_effect();
        if h < pops {
            return Err(VerifyError::StackUnderflow { pc });
        }
        let after = h - pops + pushes;
        if after as usize > MAX_STACK {
            return Err(VerifyError::StackOverflow { pc });
        }
        max_seen = max_seen.max(after);
        match instr {
            Instr::Halt => {}
            Instr::Jmp(t) => merge(&mut heights, &mut worklist, t as usize, after)?,
            Instr::Jz(t) | Instr::Jnz(t) => {
                merge(&mut heights, &mut worklist, t as usize, after)?;
                merge(&mut heights, &mut worklist, pc + 1, after)?;
            }
            _ => merge(&mut heights, &mut worklist, pc + 1, after)?,
        }
    }
    Ok(VerifiedProgram {
        decoded: decode(&program),
        program,
        max_stack: max_seen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use Instr::*;

    fn ok(code: Vec<Instr>) -> VerifiedProgram {
        verify(Program::new(code, 16)).expect("should verify")
    }

    #[test]
    fn straight_line_program_verifies() {
        let v = ok(vec![Push(1), Push(2), Add, Output, Halt]);
        assert_eq!(v.max_stack(), 2);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            verify(Program::new(vec![], 0)),
            Err(VerifyError::EmptyProgram)
        );
    }

    #[test]
    fn underflow_detected() {
        assert_eq!(
            verify(Program::new(vec![Pop], 0)),
            Err(VerifyError::StackUnderflow { pc: 0 })
        );
        assert_eq!(
            verify(Program::new(vec![Push(1), Add], 0)),
            Err(VerifyError::StackUnderflow { pc: 1 })
        );
    }

    #[test]
    fn jump_targets_validated() {
        assert_eq!(
            verify(Program::new(vec![Jmp(5), Halt], 0)),
            Err(VerifyError::InvalidJumpTarget { pc: 0, target: 5 })
        );
        // Jumping exactly to code.len() is a clean halt.
        assert!(verify(Program::new(vec![Jmp(2), Halt], 0)).is_ok());
    }

    #[test]
    fn loop_with_consistent_heights_verifies() {
        // i = 5; while (i != 0) i -= 1;
        let code = vec![
            Push(5), // 0: [i]
            Dup,     // 1: [i, i]
            Jz(6),   // 2: [i]
            Push(1), // 3
            Sub,     // 4: [i-1]
            Jmp(1),  // 5
            Pop,     // 6: []
            Halt,    // 7
        ];
        let v = ok(code);
        assert_eq!(v.max_stack(), 2);
    }

    #[test]
    fn inconsistent_join_heights_rejected() {
        // Path A reaches pc=3 with height 1, path B with height 2.
        let code = vec![
            Push(0), // 0: [0]
            Jz(3),   // 1: []  -> target 3 with height 0
            Push(1), // 2: [1] -> falls to 3 with height 1
            Halt,    // 3
        ];
        let err = verify(Program::new(code, 0)).unwrap_err();
        assert!(
            matches!(err, VerifyError::InconsistentStack { pc: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn overflow_detected() {
        // An unconditional self-growing loop: push inside a loop body.
        let code = vec![
            Push(1), // 0
            Jmp(0),  // 1  -> join at 0 with height 1 vs 0 → inconsistent
        ];
        // This particular shape reports as inconsistent stack, which is the
        // correct diagnosis for unbounded growth through a back-edge.
        assert!(verify(Program::new(code, 0)).is_err());
        // Direct overflow: straight-line pushes beyond MAX_STACK.
        let long = vec![Push(0); MAX_STACK + 1];
        let err = verify(Program::new(long, 0)).unwrap_err();
        assert!(matches!(err, VerifyError::StackOverflow { .. }), "{err}");
    }

    #[test]
    fn memory_limit_enforced() {
        let err = verify(Program::new(vec![Halt], MAX_MEMORY_WORDS + 1)).unwrap_err();
        assert!(matches!(err, VerifyError::MemoryTooLarge(_)));
        assert!(verify(Program::new(vec![Halt], MAX_MEMORY_WORDS)).is_ok());
    }

    #[test]
    fn code_length_limit_enforced() {
        let long = vec![Halt; MAX_CODE_LEN + 1];
        assert_eq!(
            verify(Program::new(long, 0)),
            Err(VerifyError::CodeTooLong(MAX_CODE_LEN + 1))
        );
    }

    #[test]
    fn unreachable_bad_code_is_tolerated() {
        // Dead code after Halt never executes; heights are simply not
        // computed for it. (Mirrors JVM behaviour: unreachable code is not
        // type-checked unless jumped to.)
        let code = vec![Halt, Pop, Pop, Pop];
        assert!(verify(Program::new(code, 0)).is_ok());
    }

    #[test]
    fn conditional_diamond_verifies() {
        let code = vec![
            Push(1),  // 0: [c]
            Jz(4),    // 1: []
            Push(10), // 2: [10]
            Jmp(5),   // 3
            Push(20), // 4: [20]
            Output,   // 5: []   both paths arrive with height 1
            Halt,     // 6
        ];
        assert!(verify(Program::new(code, 0)).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::InconsistentStack {
            pc: 3,
            expected: 1,
            found: 2,
        };
        assert_eq!(e.to_string(), "inconsistent stack height at 3: 1 vs 2");
    }
}
