//! A compact RISC-style three-address intermediate representation.
//!
//! This crate provides the compiler substrate for the call-cost directed
//! register-allocation study (Lueh & Gross, PLDI 1997). The IR models the
//! essentials the paper's allocators observe:
//!
//! * **virtual registers** ([`VReg`]) in two register classes
//!   ([`RegClass::Int`], [`RegClass::Float`]), mirroring the MIPS integer and
//!   floating-point banks;
//! * **basic blocks** ([`Block`]) holding straight-line [`Inst`]s and ending
//!   in a [`Terminator`];
//! * **calls** ([`Inst::Call`]) — the source of caller-/callee-save cost;
//! * **copies** ([`Inst::Copy`]) — the coalescing and shuffle-cost substrate;
//! * **counted loops** expressible with plain branches, so the profiling
//!   interpreter in `ccra-analysis` can execute programs deterministically.
//!
//! # Example
//!
//! ```
//! use ccra_ir::{FunctionBuilder, Program, RegClass, BinOp};
//!
//! let mut b = FunctionBuilder::new("double_it");
//! let x = b.new_vreg(RegClass::Int);
//! let two = b.new_vreg(RegClass::Int);
//! let y = b.new_vreg(RegClass::Int);
//! b.set_params(vec![x]);
//! b.iconst(two, 2);
//! b.binary(BinOp::Mul, y, x, two);
//! b.ret(Some(y));
//! let f = b.finish();
//! assert_eq!(f.num_blocks(), 1);
//!
//! let mut program = Program::new();
//! let id = program.add_function(f);
//! program.set_main(id);
//! program.verify().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod entity;
mod function;
mod inst;
mod parse;
mod print;
mod program;
mod stablehash;
mod verify;

pub use builder::FunctionBuilder;
pub use entity::{BlockId, EntityVec, FuncId, VReg};
pub use function::{Block, Function, VRegData};
pub use inst::{BinOp, Callee, CmpOp, Inst, OverheadKind, SpillSlot, Terminator, UnOp};
pub use parse::{parse_function, parse_program, ParseError, MAX_DECLARED};
pub use print::display_function;
pub use program::Program;
pub use stablehash::{StableHash, StableHasher};
pub use verify::{verify_function, verify_program, VerifyError};

/// The register class (bank) a virtual register belongs to.
///
/// The MIPS machine of the paper has separate integer and floating-point
/// register banks; a live range can only be assigned registers from the bank
/// matching its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// Integer bank (addresses, integers, booleans).
    Int,
    /// Floating-point bank.
    Float,
}

impl RegClass {
    /// All register classes, in a fixed order.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Float];

    /// A stable index for the class: `Int = 0`, `Float = 1`.
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Float => 1,
        }
    }
}

impl std::fmt::Display for RegClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Float => write!(f, "float"),
        }
    }
}
