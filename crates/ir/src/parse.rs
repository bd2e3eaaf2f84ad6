//! A parser for the textual IR format produced by
//! [`crate::display_function`].
//!
//! Useful for writing compact test cases and for round-trip testing. The
//! grammar is line-oriented:
//!
//! ```text
//! func <name>(<params>) {
//!   int v0, v1, v2!          // `!` marks a spill temporary
//!   float v3
//!   slots <n>
//! bb0:
//!   v1 = iconst 5
//!   v2 = add v1, v1
//!   br v2 ? bb1 : bb2
//! ...
//! }
//! ```

use std::collections::HashMap;

use crate::entity::{BlockId, EntityVec, VReg};
use crate::function::{Block, Function, VRegData};
use crate::inst::{BinOp, Callee, CmpOp, Inst, SpillSlot, Terminator, UnOp};
use crate::{FuncId, Program, RegClass};

/// The most virtual registers or spill slots one parsed function may
/// declare: vreg ids must be below it and `slots <n>` at most it.
///
/// The parser builds a dense vreg table sized by the largest declared id
/// and creates one spill slot per counted slot, so without a bound a
/// one-line input (`int v4000000000`) would allocate gigabytes. The limit
/// is orders of magnitude above any real function — the SPEC workloads
/// and fuzz programs declare at most a few thousand of each.
pub const MAX_DECLARED: u32 = 1 << 20;

/// A textual-IR parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// The text strictly between the delimiters at byte offsets `open` and
/// `close`; an error when they appear out of order (`f)x(`).
fn between(line: usize, text: &str, open: usize, close: usize) -> Result<&str, ParseError> {
    text.get(open + 1..close).ok_or_else(|| ParseError {
        line,
        message: format!("delimiters out of order in `{text}`"),
    })
}

fn parse_vreg(line: usize, tok: &str) -> Result<VReg, ParseError> {
    let tok = tok.trim().trim_end_matches(',');
    match tok.strip_prefix('v').and_then(|n| n.parse::<u32>().ok()) {
        Some(n) => Ok(VReg(n)),
        None => err(line, format!("expected vreg, found `{tok}`")),
    }
}

fn parse_block_id(line: usize, tok: &str) -> Result<BlockId, ParseError> {
    match tok
        .trim()
        .strip_prefix("bb")
        .and_then(|n| n.parse::<u32>().ok())
    {
        Some(n) => Ok(BlockId(n)),
        None => err(line, format!("expected block id, found `{tok}`")),
    }
}

fn parse_slot(line: usize, tok: &str) -> Result<SpillSlot, ParseError> {
    match tok
        .trim()
        .strip_prefix("slot")
        .and_then(|n| n.parse::<u32>().ok())
    {
        Some(n) => Ok(SpillSlot(n)),
        None => err(line, format!("expected spill slot, found `{tok}`")),
    }
}

fn binop_of(m: &str) -> Option<BinOp> {
    Some(match m {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "fadd" => BinOp::FAdd,
        "fsub" => BinOp::FSub,
        "fmul" => BinOp::FMul,
        "fdiv" => BinOp::FDiv,
        _ => return None,
    })
}

fn unop_of(m: &str) -> Option<UnOp> {
    Some(match m {
        "neg" => UnOp::Neg,
        "not" => UnOp::Not,
        "fneg" => UnOp::FNeg,
        "i2f" => UnOp::IntToFloat,
        "f2i" => UnOp::FloatToInt,
        _ => return None,
    })
}

fn cmp_of(m: &str) -> Option<CmpOp> {
    Some(match m {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

/// Parses `[vN+OFF]` into `(addr, offset)`.
fn parse_mem(line: usize, tok: &str) -> Result<(VReg, i64), ParseError> {
    let inner = tok
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected [vN+off], found `{tok}`"),
        })?;
    let plus = inner.rfind('+').ok_or_else(|| ParseError {
        line,
        message: format!("expected +offset in `{tok}`"),
    })?;
    let addr = parse_vreg(line, &inner[..plus])?;
    let offset: i64 = inner[plus + 1..].trim().parse().map_err(|_| ParseError {
        line,
        message: format!("bad offset in `{tok}`"),
    })?;
    Ok((addr, offset))
}

/// Parses a call tail `target(args...)` into `(callee, args)`.
fn parse_call(
    line: usize,
    rest: &str,
    funcs: &HashMap<String, FuncId>,
) -> Result<(Callee, Vec<VReg>), ParseError> {
    let open = rest.find('(').ok_or_else(|| ParseError {
        line,
        message: "call needs (args)".into(),
    })?;
    let close = rest.rfind(')').ok_or_else(|| ParseError {
        line,
        message: "call needs closing )".into(),
    })?;
    let target = rest[..open].trim();
    let callee = if let Some(name) = target.strip_prefix('@') {
        // External names must be 'static; intern via a leaked string (test
        // and tooling use only).
        Callee::External(Box::leak(name.to_string().into_boxed_str()))
    } else if let Some(n) = target
        .strip_prefix("fn")
        .and_then(|n| n.parse::<u32>().ok())
    {
        Callee::Internal(FuncId(n))
    } else if let Some(&id) = funcs.get(target) {
        Callee::Internal(id)
    } else {
        return err(line, format!("unknown call target `{target}`"));
    };
    let args_str = between(line, rest, open, close)?.trim();
    let mut args = Vec::new();
    if !args_str.is_empty() {
        for tok in args_str.split(',') {
            args.push(parse_vreg(line, tok)?);
        }
    }
    Ok((callee, args))
}

fn parse_inst(
    line: usize,
    text: &str,
    funcs: &HashMap<String, FuncId>,
) -> Result<Inst, ParseError> {
    // Statements without a destination first.
    if let Some(rest) = text.strip_prefix("store ") {
        // store [vA+off], vS
        let comma = rest.rfind(',').ok_or_else(|| ParseError {
            line,
            message: "store needs `, src`".into(),
        })?;
        let (addr, offset) = parse_mem(line, &rest[..comma])?;
        let src = parse_vreg(line, &rest[comma + 1..])?;
        return Ok(Inst::Store { src, addr, offset });
    }
    if let Some(rest) = text.strip_prefix("call ") {
        let (callee, args) = parse_call(line, rest, funcs)?;
        return Ok(Inst::Call {
            callee,
            args,
            ret: None,
        });
    }
    if let Some(rest) = text.strip_prefix("overhead ") {
        let mut parts = rest.split_whitespace();
        let kind = match parts.next() {
            Some("spill") => crate::OverheadKind::Spill,
            Some("caller_save") => crate::OverheadKind::CallerSave,
            Some("callee_save") => crate::OverheadKind::CalleeSave,
            Some("shuffle") => crate::OverheadKind::Shuffle,
            other => return err(line, format!("bad overhead kind {other:?}")),
        };
        let ops = parts
            .next()
            .and_then(|t| t.strip_prefix('x'))
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| ParseError {
                line,
                message: "overhead needs xN".into(),
            })?;
        return Ok(Inst::Overhead { kind, ops });
    }

    // `<lhs> = <op> ...`
    let eq = text.find('=').ok_or_else(|| ParseError {
        line,
        message: format!("unrecognised instruction `{text}`"),
    })?;
    let lhs = text[..eq].trim();
    let rest = text[eq + 1..].trim();

    if let Ok(slot) = parse_slot(line, lhs) {
        let src = rest.strip_prefix("spill_store").ok_or_else(|| ParseError {
            line,
            message: "slot target needs spill_store".into(),
        })?;
        return Ok(Inst::SpillStore {
            slot,
            src: parse_vreg(line, src)?,
        });
    }
    let dst = parse_vreg(line, lhs)?;
    let (op, tail) = match rest.find(' ') {
        Some(sp) => (&rest[..sp], rest[sp + 1..].trim()),
        None => (rest, ""),
    };
    if op == "iconst" {
        let value: i64 = tail.parse().map_err(|_| ParseError {
            line,
            message: format!("bad int constant `{tail}`"),
        })?;
        return Ok(Inst::IConst { dst, value });
    }
    if op == "fconst" {
        let value: f64 = tail.parse().map_err(|_| ParseError {
            line,
            message: format!("bad float constant `{tail}`"),
        })?;
        return Ok(Inst::FConst { dst, value });
    }
    if let Some(b) = binop_of(op) {
        let comma = tail.find(',').ok_or_else(|| ParseError {
            line,
            message: "binary op needs two operands".into(),
        })?;
        return Ok(Inst::Binary {
            op: b,
            dst,
            lhs: parse_vreg(line, &tail[..comma])?,
            rhs: parse_vreg(line, &tail[comma + 1..])?,
        });
    }
    if let Some(u) = unop_of(op) {
        return Ok(Inst::Unary {
            op: u,
            dst,
            src: parse_vreg(line, tail)?,
        });
    }
    if let Some(c) = op.strip_prefix("cmp.").and_then(cmp_of) {
        let comma = tail.find(',').ok_or_else(|| ParseError {
            line,
            message: "cmp needs two operands".into(),
        })?;
        return Ok(Inst::Cmp {
            op: c,
            dst,
            lhs: parse_vreg(line, &tail[..comma])?,
            rhs: parse_vreg(line, &tail[comma + 1..])?,
        });
    }
    match op {
        "copy" => Ok(Inst::Copy {
            dst,
            src: parse_vreg(line, tail)?,
        }),
        "load" => {
            let (addr, offset) = parse_mem(line, tail)?;
            Ok(Inst::Load { dst, addr, offset })
        }
        "spill_load" => Ok(Inst::SpillLoad {
            dst,
            slot: parse_slot(line, tail)?,
        }),
        "call" => {
            let (callee, args) = parse_call(line, tail, funcs)?;
            Ok(Inst::Call {
                callee,
                args,
                ret: Some(dst),
            })
        }
        _ => err(line, format!("unknown operation `{op}`")),
    }
}

fn parse_term(line: usize, text: &str) -> Result<Option<Terminator>, ParseError> {
    if let Some(t) = text.strip_prefix("jump ") {
        return Ok(Some(Terminator::Jump(parse_block_id(line, t)?)));
    }
    if let Some(rest) = text.strip_prefix("br ") {
        // br vC ? bbT : bbE
        let q = rest.find('?').ok_or_else(|| ParseError {
            line,
            message: "br needs ?".into(),
        })?;
        let colon = rest.rfind(':').ok_or_else(|| ParseError {
            line,
            message: "br needs :".into(),
        })?;
        return Ok(Some(Terminator::Branch {
            cond: parse_vreg(line, &rest[..q])?,
            then_bb: parse_block_id(line, between(line, rest, q, colon)?)?,
            else_bb: parse_block_id(line, &rest[colon + 1..])?,
        }));
    }
    if text == "ret" {
        return Ok(Some(Terminator::Return(None)));
    }
    if let Some(v) = text.strip_prefix("ret ") {
        return Ok(Some(Terminator::Return(Some(parse_vreg(line, v)?))));
    }
    Ok(None)
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split("//").next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser { lines, pos: 0 }
    }

    fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let item = self.peek();
        self.pos += 1;
        item
    }

    fn parse_function(&mut self, funcs: &HashMap<String, FuncId>) -> Result<Function, ParseError> {
        let (line, header) = self.next().ok_or_else(|| ParseError {
            line: 0,
            message: "expected `func`".into(),
        })?;
        let header = header.strip_prefix("func ").ok_or_else(|| ParseError {
            line,
            message: "expected `func <name>(…) {`".into(),
        })?;
        let open = header.find('(').ok_or_else(|| ParseError {
            line,
            message: "func needs (params)".into(),
        })?;
        let close = header.find(')').ok_or_else(|| ParseError {
            line,
            message: "func needs closing )".into(),
        })?;
        if !header[close..].contains('{') {
            return err(line, "func needs opening {");
        }
        let name = header[..open].trim().to_string();
        let mut params = Vec::new();
        let params_str = between(line, header, open, close)?.trim();
        if !params_str.is_empty() {
            for tok in params_str.split(',') {
                params.push(parse_vreg(line, tok)?);
            }
        }

        // Declarations.
        let mut classes: HashMap<VReg, (RegClass, bool)> = HashMap::new();
        let mut slots = 0u32;
        while let Some((line, text)) = self.peek() {
            let class = if text.starts_with("int ") {
                Some(RegClass::Int)
            } else if text.starts_with("float ") {
                Some(RegClass::Float)
            } else {
                None
            };
            if let Some(class) = class {
                for tok in text[class.to_string().len()..].split(',') {
                    let tok = tok.trim();
                    if tok.is_empty() {
                        continue;
                    }
                    let (tok, is_temp) = match tok.strip_suffix('!') {
                        Some(t) => (t, true),
                        None => (tok, false),
                    };
                    let v = parse_vreg(line, tok)?;
                    if v.0 >= MAX_DECLARED {
                        return err(
                            line,
                            format!("vreg id {} is not below the limit {MAX_DECLARED}", v.0),
                        );
                    }
                    classes.insert(v, (class, is_temp));
                }
                self.pos += 1;
            } else if let Some(n) = text.strip_prefix("slots ") {
                slots = n.trim().parse().map_err(|_| ParseError {
                    line,
                    message: "bad slot count".into(),
                })?;
                if slots > MAX_DECLARED {
                    return err(
                        line,
                        format!("slot count {slots} exceeds the limit {MAX_DECLARED}"),
                    );
                }
                self.pos += 1;
            } else {
                break;
            }
        }

        // Dense vreg table.
        let max = classes
            .keys()
            .map(|v| v.index())
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut vregs: EntityVec<VReg, VRegData> = EntityVec::new();
        for i in 0..max {
            let (class, is_spill_temp) = classes
                .get(&VReg(i as u32))
                .copied()
                .unwrap_or((RegClass::Int, false));
            vregs.push(VRegData {
                class,
                is_spill_temp,
            });
        }

        // Blocks.
        let mut blocks: EntityVec<BlockId, Block> = EntityVec::new();
        let mut current: Option<(BlockId, Vec<Inst>)> = None;
        loop {
            let Some((line, text)) = self.next() else {
                return err(0, "unexpected end of input (missing `}`)");
            };
            if text == "}" {
                if current.is_some() {
                    return err(line, "block has no terminator before `}`");
                }
                break;
            }
            if let Some(label) = text.strip_suffix(':') {
                if current.is_some() {
                    return err(line, "previous block has no terminator");
                }
                let id = parse_block_id(line, label)?;
                if id.index() != blocks.len() {
                    return err(
                        line,
                        format!("blocks must be dense: expected bb{}", blocks.len()),
                    );
                }
                current = Some((id, Vec::new()));
                continue;
            }
            let Some((_, insts)) = current.as_mut() else {
                return err(line, "instruction outside a block");
            };
            if let Some(term) = parse_term(line, text)? {
                let (_, insts) = current.take().unwrap();
                blocks.push(Block { insts, term });
            } else {
                insts.push(parse_inst(line, text, funcs)?);
            }
        }
        if blocks.is_empty() {
            return err(line, "function has no blocks");
        }

        let mut f = Function::from_parts(name, params, BlockId(0), blocks, vregs);
        for _ in 0..slots {
            f.new_spill_slot();
        }
        Ok(f)
    }
}

/// Parses one function from the textual format.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input.
///
/// # Example
///
/// ```
/// let f = ccra_ir::parse_function(
///     "func double(v0) {\n  int v0, v1\nbb0:\n  v1 = add v0, v0\n  ret v1\n}",
/// )?;
/// assert_eq!(f.name(), "double");
/// assert_eq!(f.num_insts(), 1);
/// ccra_ir::verify_function(&f)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    Parser::new(text).parse_function(&HashMap::new())
}

/// Parses a whole program: a sequence of functions followed by an optional
/// `main <name>` directive (defaults to the function named `main`, else the
/// last function). Call targets may be written `fnN` or by function name
/// (backward references only).
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(text);
    let mut program = Program::new();
    let mut names: HashMap<String, FuncId> = HashMap::new();
    let mut main_directive: Option<(usize, String)> = None;
    while let Some((line, text)) = parser.peek() {
        if let Some(name) = text.strip_prefix("main ") {
            main_directive = Some((line, name.trim().to_string()));
            parser.pos += 1;
            continue;
        }
        let f = parser.parse_function(&names)?;
        let name = f.name().to_string();
        let id = program.add_function(f);
        names.insert(name, id);
    }
    let main = match main_directive {
        Some((line, name)) => Some(*names.get(&name).ok_or_else(|| ParseError {
            line,
            message: format!("unknown main `{name}`"),
        })?),
        None => names
            .get("main")
            .copied()
            .or_else(|| program.func_ids().last()),
    };
    if let Some(main) = main {
        program.set_main(main);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{display_function, FunctionBuilder};

    #[test]
    fn parse_minimal() {
        let f = parse_function("func f() {\n  int v0\nbb0:\n  v0 = iconst 7\n  ret v0\n}").unwrap();
        assert_eq!(f.name(), "f");
        assert_eq!(f.num_vregs(), 1);
        crate::verify_function(&f).unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_function("func f() {\n  int v0\nbb0:\n  v0 = bogus 7\n  ret\n}").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("bogus"));

        let e = parse_function("func f() {\nbb0:\n  ret\nbb2:\n  ret\n}").unwrap_err();
        assert!(e.message.contains("dense"));
    }

    #[test]
    fn out_of_order_delimiters_are_errors_not_panics() {
        let e = parse_program("func f)x( {\nbb0:\n  ret\n}\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_program("func f() {\nbb0:\n  call @g)(\n  ret\n}\n").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_function("func f() {\n  int v0\nbb0:\n  br v0 : bb0 ? bb0\n}").unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn huge_declarations_are_errors_not_allocations() {
        let e = parse_function("func f() {\n  int v4000000000\nbb0:\n  ret\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("limit"), "{e}");
        let e = parse_function("func f() {\n  slots 4000000000\nbb0:\n  ret\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("limit"), "{e}");
        // The limit itself: the last id below it and a count equal to it
        // are accepted.
        let last = MAX_DECLARED - 1;
        let f = parse_function(&format!("func f() {{\n  int v{last}\nbb0:\n  ret\n}}")).unwrap();
        assert_eq!(f.num_vregs(), MAX_DECLARED as usize);
        let e = parse_function(&format!(
            "func f() {{\n  int v{MAX_DECLARED}\nbb0:\n  ret\n}}"
        ))
        .unwrap_err();
        assert_eq!(e.line, 2);
        let f = parse_function(&format!(
            "func f() {{\n  slots {MAX_DECLARED}\nbb0:\n  ret\n}}"
        ))
        .unwrap();
        assert_eq!(f.num_spill_slots(), MAX_DECLARED);
    }

    #[test]
    fn missing_terminator_rejected() {
        let e = parse_function("func f() {\n  int v0\nbb0:\n  v0 = iconst 1\n}").unwrap_err();
        assert!(e.message.contains("terminator"));
    }

    fn roundtrip(f: &crate::Function) {
        let text = display_function(f);
        let parsed =
            parse_function(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let text2 = display_function(&parsed);
        assert_eq!(text, text2, "round-trip mismatch");
    }

    #[test]
    fn roundtrips_every_construct() {
        let mut b = FunctionBuilder::new("everything");
        let p = b.new_vreg(RegClass::Int);
        b.set_params(vec![p]);
        let x = b.new_vreg(RegClass::Int);
        let y = b.new_vreg(RegClass::Float);
        let z = b.new_vreg(RegClass::Float);
        b.iconst(x, -42);
        b.fconst(y, 1.5);
        b.binary(BinOp::Xor, x, x, p);
        b.binary(BinOp::FMul, z, y, y);
        b.unary(UnOp::IntToFloat, z, x);
        b.unary(UnOp::FloatToInt, x, z);
        b.cmp(CmpOp::Ge, x, x, p);
        b.load(x, p, -8);
        b.store(x, p, 16);
        b.copy(x, p);
        b.call(Callee::External("sin"), vec![x, p], Some(x));
        b.call(Callee::Internal(FuncId(0)), vec![], None);
        let t = b.reserve_block();
        let e = b.reserve_block();
        b.branch(x, t, e);
        b.switch_to(t);
        b.jump(e);
        b.switch_to(e);
        b.ret(Some(x));
        let mut f = b.finish();
        let slot = f.new_spill_slot();
        let temp = f.new_spill_temp(RegClass::Float);
        let entry = f.entry();
        f.block_mut(entry)
            .insts
            .push(Inst::SpillStore { slot, src: p });
        f.block_mut(entry)
            .insts
            .push(Inst::SpillLoad { dst: temp, slot });
        f.block_mut(entry).insts.push(Inst::Overhead {
            kind: crate::OverheadKind::CallerSave,
            ops: 4,
        });
        roundtrip(&f);
    }

    #[test]
    fn float_constants_roundtrip_exactly() {
        let mut b = FunctionBuilder::new("floats");
        let v = b.new_vreg(RegClass::Float);
        b.fconst(v, 0.1 + 0.2); // a value that needs full precision
        b.fconst(v, 1e300);
        b.fconst(v, -0.0);
        b.ret(None);
        let f = b.finish();
        let parsed = parse_function(&display_function(&f)).unwrap();
        assert_eq!(f.block(f.entry()).insts, parsed.block(parsed.entry()).insts);
    }

    #[test]
    fn parse_program_with_calls_by_name() {
        let text = "\
func helper(v0) {
  int v0
bb0:
  ret v0
}
func main() {
  int v0, v1
bb0:
  v0 = iconst 3
  v1 = call helper(v0)
  ret v1
}
";
        let p = parse_program(text).unwrap();
        assert_eq!(p.num_functions(), 2);
        assert!(p.main().is_some());
        assert_eq!(p.function(p.main().unwrap()).name(), "main");
        p.verify().unwrap();
        assert_eq!(p.call_edges().len(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let f = parse_function(
            "func f() { // header\n\n  int v0 // decl\nbb0:\n  // nothing\n  v0 = iconst 1\n  ret v0\n}",
        )
        .unwrap();
        assert_eq!(f.num_insts(), 1);
    }
}
