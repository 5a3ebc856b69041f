//! TaskVM: the portable execution substrate for offloaded tasks.
//!
//! TaskVM is a stack machine over `i64` words with a bounded word-addressed
//! memory, explicit inputs/outputs and deterministic gas metering. Programs
//! are [verified](verify()) before execution — verification proves stack
//! safety and jump validity once, so a malicious task cannot corrupt the
//! host.
//!
//! Verification also lowers the program once into a pre-decoded form:
//! jump targets resolved, one gas charge per basic block, and `Push c`
//! fused with a following `Load`/`Store`/`Add`/`Mul`. The interpreter runs
//! that form on a fixed-size operand stack and charges gas per block; in
//! the one block that would cross the gas limit it charges per instruction
//! instead. The result — outputs, `gas_used`, `steps` and every [`Trap`]
//! with its `pc` — is bit-identical to charging and running one
//! instruction at a time, which is what the gas table in [`gas_cost`]
//! defines. Results are report inputs, so this exactness is a contract,
//! pinned by a differential property test against a per-instruction
//! reference interpreter.
//!
//! The module split mirrors the lifecycle:
//! [`isa`] (what programs are) → [`asm`] (how they are written) →
//! [`verify`](verify()) (what a receiving node checks, and the decoding) →
//! [`exec`] (how they run).

pub mod asm;
mod decode;
pub mod exec;
pub mod isa;
#[cfg(test)]
mod reference;
pub mod verify;

pub use asm::{AsmError, Assembler, Label};
pub use exec::{execute, ExecLimits, Execution, Trap};
pub use isa::{gas_cost, Instr, Program, MAX_CODE_LEN, MAX_MEMORY_WORDS, MAX_STACK};
pub use verify::{verify, VerifiedProgram, VerifyError};
