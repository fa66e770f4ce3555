//! Static verification of compiled tapes — an abstract interpreter
//! over [`CompiledTape`] that proves a program well-formed without
//! executing it.
//!
//! A tape is a structured program: `Dense`/`Sparse` headers paired
//! with a trailing `EndLoop`, straight-line `Zero`/`Leaf`/microkernel
//! instructions between them, and no other control flow. The verifier
//! walks that structure once, carrying the stack of open loops and the
//! set of buffers zeroed on every path to the current point, and
//! proves the invariants the paper's Sec.-4/5 lowering is supposed to
//! establish:
//!
//! 1. **Loop structure & frame depth** — every header's `end` jump
//!    lands just past its own `EndLoop`, loops are properly nested,
//!    and the static nesting depth never exceeds the preallocated
//!    frame-stack capacity ([`TapeState`](super::TapeState) indexes
//!    `frames[fp]` unchecked-by-construction, so an overflow here
//!    would be an out-of-bounds write at run time).
//! 2. **Cursor bounds** — every compiled operand address is an
//!    incremental cursor advanced by `Δcoordinate · stride` per
//!    enclosing loop. For each access the verifier sums the worst-case
//!    offset `Σ (extent−1)·stride` over the enclosing loops that
//!    advance the cursor, adds the microkernel's own strided extent
//!    (`(n−1)·inc`, `(m−1)·rs + (n−1)·cs`), and proves the result
//!    inside the backing store's flat length — factor shapes, Eq.-5
//!    buffer sizes, and the dense output extent captured at compile
//!    time. One cursor aliased to two different stores is rejected.
//! 3. **Eq.-5 zero domination** — an intermediate buffer accumulates
//!    with `+=` and is reset by a `Zero` at its split vertex (the
//!    paper's Eq. 5 places the zero where producer and consumer
//!    subtrees meet). Every buffer read *and* every accumulating
//!    write must be dominated by a `Zero` of that buffer: a `Zero`
//!    earlier in the same block or in an enclosing block. Zeros
//!    inside a loop body do not dominate code after the loop — the
//!    loop may run zero times — so the zeroed set is restored at every
//!    loop exit.
//! 4. **Resolver shape** — finger-search resolvers descend consecutive
//!    CSF levels `start..=target`. The verifier proves the target
//!    level exists and matches the use site (parent of a `Sparse`
//!    header at `level` resolves `level−1`; a sparse-value access
//!    resolves the leaf level), that levels marked `Tracked` really
//!    are tracked by an enclosing sparse loop at the use point, that a
//!    descent only starts with a search at level 0 (anything deeper
//!    needs a parent node), and that each searched level looks up the
//!    kernel index actually stored at that level.
//! 5. **Operand ranges** — every slot, buffer, cursor, finger,
//!    resolver, CSF level, and advance-table range referenced by any
//!    instruction is in range, and a `Dense` header's baked-in extent
//!    equals the kernel's declared dimension for that index.
//! 6. **Superinstruction contracts** — a fused `ZeroAxpy`/`ZeroXmul`/
//!    `ZeroGer` replaces an Eq.-5 `Zero`, so it must *assign* the
//!    term's whole buffer: unit target stride, buffer (never output)
//!    target, and extent equal to the buffer length. It then
//!    establishes zero domination exactly like the `Zero` it fused.
//!    Rank-specialized sites (`RankSpec::R8/R16/R32`) must dispatch
//!    with exactly the specialized trip count over unit-stride
//!    operands — the fixed kernels assert this at run time; the
//!    verifier proves it statically.
//!
//! The cost is O(program size · nesting depth) — independent of the
//! tensor data — so `Plan::bind` runs it unconditionally in debug
//! builds; release callers opt in with `PlanOptions::with_verify(true)`
//! or `spttn plan --verify`.

use super::{
    CompiledTape, Instr, MatSrc, MatTgt, NodeRes, ParentLoc, RBuf, Read, ResLevel, VecSrc, VecTgt,
    Write,
};
use crate::simd::RankSpec;
use spttn_core::SpttnError;
use std::fmt;

/// A violated tape invariant: proof that a compiled program is
/// malformed, with enough context to locate the offending instruction.
///
/// Each variant is one corruption *class*; the mutation suite in this
/// module corrupts valid tapes one class at a time and asserts the
/// matching variant comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeInvariantError {
    /// Loop structure is broken: a header's `end` jump does not land
    /// just past its own `EndLoop`, or an `EndLoop` has no open loop.
    MalformedLoop { pc: usize, detail: String },
    /// Static loop nesting exceeds the preallocated frame-stack
    /// capacity — the driver would write `frames` out of bounds.
    FrameOverflow {
        pc: usize,
        depth: usize,
        capacity: usize,
    },
    /// An instruction operand (term, cursor, finger slot, resolver id,
    /// CSF level, index id, advance-table range) is out of range.
    OperandOutOfRange {
        pc: usize,
        what: &'static str,
        got: usize,
        limit: usize,
    },
    /// A `Dense` header's baked-in extent disagrees with the kernel's
    /// declared dimension for its index.
    ExtentMismatch {
        pc: usize,
        index: usize,
        got: usize,
        expected: usize,
    },
    /// A cursor-addressed access can exceed its backing store under
    /// the declared loop extents.
    CursorOutOfBounds {
        pc: usize,
        cursor: usize,
        store: String,
        max_offset: usize,
        len: usize,
    },
    /// One cursor is used against two different backing stores.
    CursorAliased {
        pc: usize,
        cursor: usize,
        first: String,
        second: String,
    },
    /// A buffer is read or accumulated into without a dominating
    /// `Zero` — the Eq.-5 split-point reset is missing on some path.
    MissingZero { pc: usize, term: usize },
    /// A microkernel sources a buffer at or past its target term; the
    /// driver's read/write split (`buffers[..term]`) cannot serve it.
    ProducerOrderViolation {
        pc: usize,
        source: usize,
        term: usize,
    },
    /// A finger-search resolver's descent is malformed: wrong target
    /// level, empty or non-consecutive levels, a search below an
    /// unresolved parent, or a searched index that is not the one
    /// stored at that CSF level.
    ResolverInvariant {
        pc: usize,
        resolver: usize,
        detail: String,
    },
    /// Sparse-node tracking is inconsistent at a use site: a level
    /// assumed tracked is not tracked by any enclosing loop, a parent
    /// locator points at the wrong level, a sparse access lacks node
    /// resolution, or sparse loops are nested against CSF level order.
    TrackingInvariant { pc: usize, detail: String },
    /// A fused `ZeroAccum` superinstruction does not assign its term's
    /// whole buffer (wrong extent, strided target, or an output
    /// target): elements outside the covered range would keep stale
    /// values instead of the Eq.-5 reset the fusion replaced.
    ZeroAccumCoverage {
        pc: usize,
        term: usize,
        covered: usize,
        len: usize,
    },
    /// A rank-specialized microkernel site whose recorded operands do
    /// not match the specialization — the fixed-rank kernel asserts
    /// its pinned trip count and unit strides at run time, so a
    /// mismatch here is a guaranteed panic (or, without debug asserts,
    /// an out-of-bounds sweep).
    SpecializationMismatch {
        pc: usize,
        rank: usize,
        detail: String,
    },
}

impl fmt::Display for TapeInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeInvariantError::MalformedLoop { pc, detail } => {
                write!(f, "instr {pc}: malformed loop: {detail}")
            }
            TapeInvariantError::FrameOverflow {
                pc,
                depth,
                capacity,
            } => write!(
                f,
                "instr {pc}: loop nesting depth {depth} exceeds the frame-stack capacity {capacity}"
            ),
            TapeInvariantError::OperandOutOfRange {
                pc,
                what,
                got,
                limit,
            } => write!(
                f,
                "instr {pc}: {what} {got} out of range (limit {limit})"
            ),
            TapeInvariantError::ExtentMismatch {
                pc,
                index,
                got,
                expected,
            } => write!(
                f,
                "instr {pc}: dense loop extent {got} disagrees with the declared dimension {expected} of index {index}"
            ),
            TapeInvariantError::CursorOutOfBounds {
                pc,
                cursor,
                store,
                max_offset,
                len,
            } => write!(
                f,
                "instr {pc}: cursor {cursor} can reach offset {max_offset} in {store} of length {len}"
            ),
            TapeInvariantError::CursorAliased {
                pc,
                cursor,
                first,
                second,
            } => write!(
                f,
                "instr {pc}: cursor {cursor} addresses both {first} and {second}"
            ),
            TapeInvariantError::MissingZero { pc, term } => write!(
                f,
                "instr {pc}: buffer of term {term} accessed without a dominating Zero (Eq.-5 split-point reset missing)"
            ),
            TapeInvariantError::ProducerOrderViolation { pc, source, term } => write!(
                f,
                "instr {pc}: microkernel for term {term} sources buffer {source}, which the read/write split cannot serve"
            ),
            TapeInvariantError::ResolverInvariant {
                pc,
                resolver,
                detail,
            } => write!(f, "instr {pc}: resolver {resolver}: {detail}"),
            TapeInvariantError::TrackingInvariant { pc, detail } => {
                write!(f, "instr {pc}: node tracking: {detail}")
            }
            TapeInvariantError::ZeroAccumCoverage {
                pc,
                term,
                covered,
                len,
            } => write!(
                f,
                "instr {pc}: fused zero-accumulate covers {covered} of the {len} elements of term {term}'s buffer"
            ),
            TapeInvariantError::SpecializationMismatch { pc, rank, detail } => write!(
                f,
                "instr {pc}: rank-{rank} specialized kernel {detail}"
            ),
        }
    }
}

impl std::error::Error for TapeInvariantError {}

impl From<TapeInvariantError> for SpttnError {
    fn from(e: TapeInvariantError) -> SpttnError {
        SpttnError::Execution(format!("tape verification failed: {e}"))
    }
}

/// Proof summary returned by a successful [`CompiledTape::verify`]:
/// what was walked and how much was checked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TapeReport {
    /// Instructions walked.
    pub instrs: usize,
    /// Dense loop headers.
    pub dense_loops: usize,
    /// Sparse loop headers.
    pub sparse_loops: usize,
    /// Deepest static loop nesting encountered.
    pub max_nesting: usize,
    /// Preallocated frame-stack capacity the nesting was checked
    /// against.
    pub frame_capacity: usize,
    /// Eq.-5 `Zero` split points (explicit `Zero` instructions; fused
    /// split points are counted in [`TapeReport::zero_accums`]).
    pub zeros: usize,
    /// Microkernel instructions, fused superinstructions included.
    pub microkernels: usize,
    /// Fused `ZeroAccum` superinstructions proved to assign their
    /// term's whole buffer.
    pub zero_accums: usize,
    /// Rank-specialized microkernel sites proved to match their
    /// pinned trip count and unit strides.
    pub specialized: usize,
    /// Cursor-addressed accesses proved in bounds.
    pub accesses_checked: usize,
    /// Distinct cursors bound to a backing store.
    pub cursors_bound: usize,
    /// Resolver use sites checked.
    pub resolver_sites: usize,
}

impl fmt::Display for TapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verified {} instrs ({} dense + {} sparse loops, nesting {}/{}), \
             {} zero points, {} microkernels ({} fused, {} rank-specialized), \
             {} accesses in bounds over {} cursors, {} resolver sites",
            self.instrs,
            self.dense_loops,
            self.sparse_loops,
            self.max_nesting,
            self.frame_capacity,
            self.zeros,
            self.microkernels,
            self.zero_accums,
            self.specialized,
            self.accesses_checked,
            self.cursors_bound,
            self.resolver_sites
        )
    }
}

/// Backing store a cursor resolves against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    Factor(usize),
    Buffer(usize),
    Out,
}

/// One open loop during the structured walk.
struct OpenLoop {
    index: usize,
    /// CSF level for sparse loops.
    level: Option<usize>,
    /// This loop's slice of the advance table.
    adv: (u32, u32),
}

struct Checker<'t> {
    tape: &'t CompiledTape,
    stack: Vec<OpenLoop>,
    /// Terms whose buffer a `Zero` dominates at the current point.
    zeroed: Vec<bool>,
    /// Store each cursor has been bound to (aliasing detector).
    stores: Vec<Option<Store>>,
    report: TapeReport,
}

/// Walk `tape` and prove every invariant; the module docs list them.
pub(crate) fn verify(tape: &CompiledTape) -> Result<TapeReport, TapeInvariantError> {
    // The advance table is shared by all headers; cursors must be in
    // range no matter how ranges are sliced.
    for e in &tape.adv {
        if e.cur >= tape.n_cursors {
            return Err(TapeInvariantError::OperandOutOfRange {
                pc: 0,
                what: "advance-table cursor",
                got: e.cur,
                limit: tape.n_cursors,
            });
        }
    }
    let mut ck = Checker {
        tape,
        stack: Vec::new(),
        zeroed: vec![false; tape.n_terms],
        stores: vec![None; tape.n_cursors],
        report: TapeReport {
            instrs: tape.instrs.len(),
            frame_capacity: tape.max_depth,
            ..TapeReport::default()
        },
    };
    ck.block(0, tape.instrs.len())?;
    ck.report.cursors_bound = ck.stores.iter().filter(|s| s.is_some()).count();
    Ok(ck.report)
}

impl<'t> Checker<'t> {
    /// Check the straight-line block `instrs[lo..hi]`, recursing into
    /// loop bodies.
    fn block(&mut self, lo: usize, hi: usize) -> Result<(), TapeInvariantError> {
        let mut pc = lo;
        while pc < hi {
            match self.tape.instrs[pc] {
                Instr::Zero { term } => {
                    self.in_range(pc, "zeroed term", term, self.tape.n_terms)?;
                    self.zeroed[term] = true;
                    self.report.zeros += 1;
                    pc += 1;
                }
                Instr::Dense {
                    index,
                    dim,
                    adv,
                    end,
                } => {
                    self.in_range(pc, "loop index", index, self.tape.n_indices)?;
                    let expected = self.tape.bounds.index_dims[index];
                    if dim != expected {
                        return Err(TapeInvariantError::ExtentMismatch {
                            pc,
                            index,
                            got: dim,
                            expected,
                        });
                    }
                    self.report.dense_loops += 1;
                    self.loop_body(
                        pc,
                        end,
                        hi,
                        OpenLoop {
                            index,
                            level: None,
                            adv,
                        },
                    )?;
                    pc = end;
                }
                Instr::Sparse {
                    index,
                    level,
                    parent,
                    adv,
                    end,
                } => {
                    self.in_range(pc, "loop index", index, self.tape.n_indices)?;
                    self.in_range(pc, "CSF level", level, self.tape.n_levels)?;
                    if self.tape.bounds.level_index[level] != index {
                        return Err(TapeInvariantError::TrackingInvariant {
                            pc,
                            detail: format!(
                                "sparse loop iterates index {index} but CSF level {level} stores index {}",
                                self.tape.bounds.level_index[level]
                            ),
                        });
                    }
                    // CSF descent order: an enclosing sparse loop must
                    // iterate a strictly shallower level (Def. 3.2
                    // restricts loop orders to the storage order).
                    for l in &self.stack {
                        if let Some(el) = l.level {
                            if el >= level {
                                return Err(TapeInvariantError::TrackingInvariant {
                                    pc,
                                    detail: format!(
                                        "sparse loop at level {level} nested inside level {el} (against CSF storage order)"
                                    ),
                                });
                            }
                        }
                    }
                    match parent {
                        ParentLoc::Root => {
                            if level != 0 {
                                return Err(TapeInvariantError::TrackingInvariant {
                                    pc,
                                    detail: format!(
                                        "level-{level} loop iterates the tile root range (only level 0 may)"
                                    ),
                                });
                            }
                        }
                        ParentLoc::Tracked(l) => {
                            if level == 0 || l != level - 1 {
                                return Err(TapeInvariantError::TrackingInvariant {
                                    pc,
                                    detail: format!(
                                        "level-{level} loop takes its range from tracked level {l} (needs level {})",
                                        level.wrapping_sub(1)
                                    ),
                                });
                            }
                            self.require_tracked(pc, l)?;
                        }
                        ParentLoc::Resolver(r) => {
                            if level == 0 {
                                return Err(TapeInvariantError::TrackingInvariant {
                                    pc,
                                    detail: "level-0 loop resolves a parent (it has none)".into(),
                                });
                            }
                            self.check_resolver(pc, r, level - 1)?;
                        }
                    }
                    self.report.sparse_loops += 1;
                    self.loop_body(
                        pc,
                        end,
                        hi,
                        OpenLoop {
                            index,
                            level: Some(level),
                            adv,
                        },
                    )?;
                    pc = end;
                }
                Instr::EndLoop => {
                    return Err(TapeInvariantError::MalformedLoop {
                        pc,
                        detail: "EndLoop without an open loop".into(),
                    });
                }
                Instr::Leaf {
                    left,
                    right,
                    tgt,
                    res,
                } => {
                    let needs_node = matches!(left, Read::SparseVal)
                        || matches!(right, Read::SparseVal)
                        || matches!(tgt, Write::SparseCell);
                    self.check_read(pc, left)?;
                    self.check_read(pc, right)?;
                    self.check_cell(pc, tgt)?;
                    self.check_node_res(pc, res, needs_node)?;
                    pc += 1;
                }
                Instr::Dot {
                    n,
                    x,
                    y,
                    tgt,
                    res,
                    spec,
                    ..
                } => {
                    let needs_node = matches!(tgt, Write::SparseCell);
                    self.check_spec(pc, spec, n, x.inc == 1 && y.inc == 1)?;
                    self.check_vec_src(pc, x, n, None)?;
                    self.check_vec_src(pc, y, n, None)?;
                    self.check_cell(pc, tgt)?;
                    self.check_node_res(pc, res, needs_node)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::Axpy {
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    res,
                    spec,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    let needs_node = matches!(alpha, Read::SparseVal);
                    self.check_spec(pc, spec, n, x.inc == 1 && y.inc == 1)?;
                    self.check_read(pc, alpha)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_vec_tgt(pc, y, n, term)?;
                    self.check_node_res(pc, res, needs_node)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::Xmul {
                    n, term, x, z, y, ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_vec_src(pc, z, n, Some(term))?;
                    self.check_vec_tgt(pc, y, n, term)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::Ger {
                    m,
                    n,
                    term,
                    x,
                    y,
                    a,
                    spec,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_spec(pc, spec, n, a.cs == 1 && y.inc == 1)?;
                    self.check_vec_src(pc, x, m, Some(term))?;
                    self.check_vec_src(pc, y, n, Some(term))?;
                    self.check_mat_tgt(pc, a, m, n, term)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::Gemv {
                    m,
                    n,
                    term,
                    a,
                    x,
                    y,
                    spec,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_spec(pc, spec, n, a.cs == 1 && x.inc == 1)?;
                    self.check_mat_src(pc, a, m, n, term)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_vec_tgt(pc, y, m, term)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::ZeroAxpy {
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    res,
                    spec,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    let needs_node = matches!(alpha, Read::SparseVal);
                    self.check_spec(pc, spec, n, x.inc == 1 && y.inc == 1)?;
                    self.check_read(pc, alpha)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_zero_vec_tgt(pc, y, n, term)?;
                    self.check_node_res(pc, res, needs_node)?;
                    self.report.microkernels += 1;
                    self.report.zero_accums += 1;
                    pc += 1;
                }
                Instr::ZeroXmul {
                    n, term, x, z, y, ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_vec_src(pc, z, n, Some(term))?;
                    self.check_zero_vec_tgt(pc, y, n, term)?;
                    self.report.microkernels += 1;
                    self.report.zero_accums += 1;
                    pc += 1;
                }
                Instr::ZeroGer {
                    m,
                    n,
                    term,
                    x,
                    y,
                    a,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_vec_src(pc, x, m, Some(term))?;
                    self.check_vec_src(pc, y, n, Some(term))?;
                    self.check_zero_mat_tgt(pc, a, m, n, term)?;
                    self.report.microkernels += 1;
                    self.report.zero_accums += 1;
                    pc += 1;
                }
            }
        }
        Ok(())
    }

    /// Enter a loop at `header` with jump target `end` inside the
    /// enclosing block `..hi`, check its body, and restore the
    /// zero-domination state (a loop may run zero times, so zeros
    /// established inside it prove nothing afterwards).
    fn loop_body(
        &mut self,
        header: usize,
        end: usize,
        hi: usize,
        info: OpenLoop,
    ) -> Result<(), TapeInvariantError> {
        if end <= header + 1 || end > hi {
            return Err(TapeInvariantError::MalformedLoop {
                pc: header,
                detail: format!(
                    "loop end target {end} outside the enclosing block ({}..{hi}]",
                    header + 1
                ),
            });
        }
        if !matches!(self.tape.instrs[end - 1], Instr::EndLoop) {
            return Err(TapeInvariantError::MalformedLoop {
                pc: header,
                detail: format!(
                    "instruction {} before the end target is not EndLoop",
                    end - 1
                ),
            });
        }
        let (a, b) = (info.adv.0 as usize, info.adv.1 as usize);
        if a > b || b > self.tape.adv.len() {
            return Err(TapeInvariantError::OperandOutOfRange {
                pc: header,
                what: "advance-table range end",
                got: b,
                limit: self.tape.adv.len(),
            });
        }
        self.stack.push(info);
        if self.stack.len() > self.tape.max_depth {
            return Err(TapeInvariantError::FrameOverflow {
                pc: header,
                depth: self.stack.len(),
                capacity: self.tape.max_depth,
            });
        }
        self.report.max_nesting = self.report.max_nesting.max(self.stack.len());
        let saved = self.zeroed.clone();
        self.block(header + 1, end - 1)?;
        self.zeroed = saved;
        self.stack.pop();
        Ok(())
    }

    fn in_range(
        &self,
        pc: usize,
        what: &'static str,
        got: usize,
        limit: usize,
    ) -> Result<(), TapeInvariantError> {
        if got >= limit {
            return Err(TapeInvariantError::OperandOutOfRange {
                pc,
                what,
                got,
                limit,
            });
        }
        Ok(())
    }

    /// True when an enclosing sparse loop tracks CSF `level`.
    fn tracked(&self, level: usize) -> bool {
        self.stack.iter().any(|l| l.level == Some(level))
    }

    fn require_tracked(&self, pc: usize, level: usize) -> Result<(), TapeInvariantError> {
        if !self.tracked(level) {
            return Err(TapeInvariantError::TrackingInvariant {
                pc,
                detail: format!("CSF level {level} is not tracked by any enclosing sparse loop"),
            });
        }
        Ok(())
    }

    /// Worst-case offset a cursor reaches at the current point: the
    /// sum of `(extent−1)·stride` over every enclosing loop that
    /// advances it (cursors are restored to 0 on loop exit, so loops
    /// not on the stack contribute nothing).
    fn max_cursor_offset(&self, cur: usize) -> usize {
        let mut off = 0usize;
        for l in &self.stack {
            for e in &self.tape.adv[l.adv.0 as usize..l.adv.1 as usize] {
                if e.cur == cur {
                    let extent = self.tape.bounds.index_dims[l.index];
                    off += extent.saturating_sub(1) * e.stride;
                }
            }
        }
        off
    }

    fn store_len(&self, s: Store) -> usize {
        match s {
            Store::Factor(i) => self.tape.bounds.factor_lens[i],
            Store::Buffer(t) => self.tape.bounds.buffer_lens[t],
            Store::Out => self.tape.bounds.out_len,
        }
    }

    fn store_name(&self, s: Store) -> String {
        match s {
            Store::Factor(i) => format!("factor slot {i}"),
            Store::Buffer(t) => format!("buffer of term {t}"),
            Store::Out => "dense output".into(),
        }
    }

    /// Bind a cursor to its backing store (rejecting aliasing) and
    /// prove its worst-case offset plus the access's own strided
    /// extent inside the store.
    fn check_access(
        &mut self,
        pc: usize,
        cur: usize,
        store: Store,
        extra: usize,
    ) -> Result<(), TapeInvariantError> {
        self.in_range(pc, "cursor", cur, self.tape.n_cursors)?;
        match self.stores[cur] {
            None => self.stores[cur] = Some(store),
            Some(prev) if prev == store => {}
            Some(prev) => {
                return Err(TapeInvariantError::CursorAliased {
                    pc,
                    cursor: cur,
                    first: self.store_name(prev),
                    second: self.store_name(store),
                });
            }
        }
        let len = self.store_len(store);
        let max_offset = self.max_cursor_offset(cur) + extra;
        if max_offset >= len {
            return Err(TapeInvariantError::CursorOutOfBounds {
                pc,
                cursor: cur,
                store: self.store_name(store),
                max_offset,
                len,
            });
        }
        self.report.accesses_checked += 1;
        Ok(())
    }

    fn rbuf_store(&self, pc: usize, buf: RBuf) -> Result<Store, TapeInvariantError> {
        Ok(match buf {
            RBuf::Factor(i) => {
                self.in_range(pc, "factor slot", i, self.tape.bounds.factor_lens.len())?;
                Store::Factor(i)
            }
            RBuf::Inter(u) => {
                self.in_range(pc, "source term", u, self.tape.n_terms)?;
                Store::Buffer(u)
            }
        })
    }

    fn require_zeroed(&self, pc: usize, term: usize) -> Result<(), TapeInvariantError> {
        if !self.zeroed[term] {
            return Err(TapeInvariantError::MissingZero { pc, term });
        }
        Ok(())
    }

    /// Scalar source: bounds plus zero domination for buffer reads.
    fn check_read(&mut self, pc: usize, r: Read) -> Result<(), TapeInvariantError> {
        match r {
            Read::Cursor { buf, cur } => {
                let store = self.rbuf_store(pc, buf)?;
                if let RBuf::Inter(u) = buf {
                    self.require_zeroed(pc, u)?;
                }
                self.check_access(pc, cur, store, 0)
            }
            Read::SparseVal => Ok(()),
        }
    }

    /// Scalar accumulation cell: the output, or a zero-dominated
    /// buffer cell.
    fn check_cell(&mut self, pc: usize, w: Write) -> Result<(), TapeInvariantError> {
        match w {
            Write::Cell { out, term, cur } => {
                self.in_range(pc, "target term", term, self.tape.n_terms)?;
                let store = if out {
                    if self.tape.bounds.output_sparse {
                        return Err(TapeInvariantError::TrackingInvariant {
                            pc,
                            detail: "dense-output write on a pattern-sharing output".into(),
                        });
                    }
                    Store::Out
                } else {
                    self.require_zeroed(pc, term)?;
                    Store::Buffer(term)
                };
                self.check_access(pc, cur, store, 0)
            }
            Write::SparseCell => {
                if !self.tape.bounds.output_sparse {
                    return Err(TapeInvariantError::TrackingInvariant {
                        pc,
                        detail: "sparse-cell write on a dense output".into(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Strided vector source of a microkernel sweeping `n` elements.
    /// `split_term` is the instruction's target term when the driver
    /// serves sources through its read/write buffer split.
    fn check_vec_src(
        &mut self,
        pc: usize,
        v: VecSrc,
        n: usize,
        split_term: Option<usize>,
    ) -> Result<(), TapeInvariantError> {
        let store = self.rbuf_store(pc, v.buf)?;
        if let RBuf::Inter(u) = v.buf {
            if let Some(term) = split_term {
                if u >= term {
                    return Err(TapeInvariantError::ProducerOrderViolation {
                        pc,
                        source: u,
                        term,
                    });
                }
            }
            self.require_zeroed(pc, u)?;
        }
        self.check_access(pc, v.cur, store, n.saturating_sub(1) * v.inc)
    }

    /// Strided matrix source (GEMV's `A`, `m × n`).
    fn check_mat_src(
        &mut self,
        pc: usize,
        a: MatSrc,
        m: usize,
        n: usize,
        split_term: usize,
    ) -> Result<(), TapeInvariantError> {
        let store = self.rbuf_store(pc, a.buf)?;
        if let RBuf::Inter(u) = a.buf {
            if u >= split_term {
                return Err(TapeInvariantError::ProducerOrderViolation {
                    pc,
                    source: u,
                    term: split_term,
                });
            }
            self.require_zeroed(pc, u)?;
        }
        let extra = m.saturating_sub(1) * a.rs + n.saturating_sub(1) * a.cs;
        self.check_access(pc, a.cur, store, extra)
    }

    /// Strided vector target sweeping `n` elements into the output or
    /// `term`'s buffer.
    fn check_vec_tgt(
        &mut self,
        pc: usize,
        y: VecTgt,
        n: usize,
        term: usize,
    ) -> Result<(), TapeInvariantError> {
        let store = if y.out {
            if self.tape.bounds.output_sparse {
                return Err(TapeInvariantError::TrackingInvariant {
                    pc,
                    detail: "dense-output write on a pattern-sharing output".into(),
                });
            }
            Store::Out
        } else {
            self.require_zeroed(pc, term)?;
            Store::Buffer(term)
        };
        self.check_access(pc, y.cur, store, n.saturating_sub(1) * y.inc)
    }

    /// Strided matrix target (GER's `A`, `m × n`).
    fn check_mat_tgt(
        &mut self,
        pc: usize,
        a: MatTgt,
        m: usize,
        n: usize,
        term: usize,
    ) -> Result<(), TapeInvariantError> {
        let store = if a.out {
            if self.tape.bounds.output_sparse {
                return Err(TapeInvariantError::TrackingInvariant {
                    pc,
                    detail: "dense-output write on a pattern-sharing output".into(),
                });
            }
            Store::Out
        } else {
            self.require_zeroed(pc, term)?;
            Store::Buffer(term)
        };
        let extra = m.saturating_sub(1) * a.rs + n.saturating_sub(1) * a.cs;
        self.check_access(pc, a.cur, store, extra)
    }

    /// Rank-specialized sites must dispatch with exactly the pinned
    /// trip count over unit-stride operands (the fixed-rank kernels
    /// assert this at run time; prove it statically instead).
    fn check_spec(
        &mut self,
        pc: usize,
        spec: RankSpec,
        n: usize,
        contig: bool,
    ) -> Result<(), TapeInvariantError> {
        let Some(r) = spec.rank() else {
            return Ok(());
        };
        if n != r || !contig {
            return Err(TapeInvariantError::SpecializationMismatch {
                pc,
                rank: r,
                detail: format!("dispatched with trip count {n}, contiguous = {contig}"),
            });
        }
        self.report.specialized += 1;
        Ok(())
    }

    /// Assigning (fused `ZeroAccum`) vector target: must be the term's
    /// buffer, unit stride, and cover it end to end — the
    /// superinstruction replaced the Eq.-5 `Zero`, so partial coverage
    /// would leave stale elements alive. Establishes zero domination
    /// for the rest of the block, exactly like the fused `Zero`.
    fn check_zero_vec_tgt(
        &mut self,
        pc: usize,
        y: VecTgt,
        n: usize,
        term: usize,
    ) -> Result<(), TapeInvariantError> {
        let len = self.tape.bounds.buffer_lens[term];
        if y.out || y.inc != 1 || n != len {
            return Err(TapeInvariantError::ZeroAccumCoverage {
                pc,
                term,
                covered: if y.out { 0 } else { n },
                len,
            });
        }
        self.check_access(pc, y.cur, Store::Buffer(term), n.saturating_sub(1))?;
        self.zeroed[term] = true;
        Ok(())
    }

    /// Assigning (fused `ZeroGer`) matrix target: row-major dense
    /// coverage of the term's whole buffer.
    fn check_zero_mat_tgt(
        &mut self,
        pc: usize,
        a: MatTgt,
        m: usize,
        n: usize,
        term: usize,
    ) -> Result<(), TapeInvariantError> {
        let len = self.tape.bounds.buffer_lens[term];
        if a.out || a.cs != 1 || a.rs != n || m * n != len {
            return Err(TapeInvariantError::ZeroAccumCoverage {
                pc,
                term,
                covered: if a.out { 0 } else { m * n },
                len,
            });
        }
        let extra = m.saturating_sub(1) * a.rs + n.saturating_sub(1) * a.cs;
        self.check_access(pc, a.cur, Store::Buffer(term), extra)?;
        self.zeroed[term] = true;
        Ok(())
    }

    /// Node resolution at a sparse access: tracked leaf or a resolver
    /// descending to the leaf level.
    fn check_node_res(
        &mut self,
        pc: usize,
        res: NodeRes,
        needs_node: bool,
    ) -> Result<(), TapeInvariantError> {
        let leaf = self.tape.n_levels.saturating_sub(1);
        match res {
            NodeRes::None => {
                if needs_node {
                    return Err(TapeInvariantError::TrackingInvariant {
                        pc,
                        detail: "sparse access without node resolution".into(),
                    });
                }
                Ok(())
            }
            NodeRes::Tracked(l) => {
                if l != leaf {
                    return Err(TapeInvariantError::TrackingInvariant {
                        pc,
                        detail: format!(
                            "sparse access reads tracked level {l} (leaf values live at level {leaf})"
                        ),
                    });
                }
                self.require_tracked(pc, l)
            }
            NodeRes::Resolver(r) => self.check_resolver(pc, r, leaf),
        }
    }

    /// Prove a resolver's descent well-formed for its use site: it
    /// must end exactly at `target`, its `Tracked` levels must be
    /// tracked here, a leading search must start at level 0, and every
    /// searched level must look up that level's stored index.
    fn check_resolver(
        &mut self,
        pc: usize,
        rid: usize,
        target: usize,
    ) -> Result<(), TapeInvariantError> {
        self.in_range(pc, "resolver", rid, self.tape.resolvers.len())?;
        let spec = &self.tape.resolvers[rid];
        if spec.levels.is_empty() {
            return Err(TapeInvariantError::ResolverInvariant {
                pc,
                resolver: rid,
                detail: "empty descent".into(),
            });
        }
        let last = spec.start + spec.levels.len() - 1;
        if last != target || spec.start > target {
            return Err(TapeInvariantError::ResolverInvariant {
                pc,
                resolver: rid,
                detail: format!(
                    "descent covers levels {}..={last} but the use site needs level {target}",
                    spec.start
                ),
            });
        }
        if target >= self.tape.n_levels {
            return Err(TapeInvariantError::ResolverInvariant {
                pc,
                resolver: rid,
                detail: format!(
                    "target level {target} past the CSF depth {}",
                    self.tape.n_levels
                ),
            });
        }
        for (off, lev) in spec.levels.iter().enumerate() {
            let l = spec.start + off;
            match *lev {
                ResLevel::Tracked => self.require_tracked(pc, l)?,
                ResLevel::Search { index, slot } => {
                    self.in_range(pc, "finger slot", slot, self.tape.n_fingers)?;
                    self.in_range(pc, "searched index", index, self.tape.n_indices)?;
                    if off == 0 && l != 0 {
                        return Err(TapeInvariantError::ResolverInvariant {
                            pc,
                            resolver: rid,
                            detail: format!(
                                "descent starts with a search at level {l} without a resolved parent"
                            ),
                        });
                    }
                    if self.tape.bounds.level_index[l] != index {
                        return Err(TapeInvariantError::ResolverInvariant {
                            pc,
                            resolver: rid,
                            detail: format!(
                                "level {l} searched on index {index} but stores index {}",
                                self.tape.bounds.level_index[l]
                            ),
                        });
                    }
                }
            }
        }
        self.report.resolver_sites += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{AdvEntry, CompiledTape, Instr, ResLevel, ResolverSpec};
    use super::*;
    use crate::simd::KernelSet;
    use spttn_ir::{
        buffers_for_forest, build_forest, parse_kernel, path_from_picks, LoopNode, NestSpec,
        VertexKind,
    };

    /// Listing-3 TTMC nest; with `flip_root_dense` the root sparse
    /// mode is iterated densely, which forces every deeper sparse loop
    /// and leaf read to compile a finger-search resolver (the same
    /// construction the finger-search golden test uses — planner-built
    /// nests always track every level).
    fn compiled(flip_root_dense: bool) -> CompiledTape {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let mut forest = build_forest(&k, &path, &spec).unwrap();
        if flip_root_dense {
            let LoopNode::Loop(iv) = &mut forest.roots[0] else {
                panic!("listing 3 has a root loop");
            };
            assert_eq!(iv.kind, VertexKind::Sparse { level: 0 });
            iv.kind = VertexKind::Dense;
        }
        CompiledTape::from_forest(&k, &path, &forest).unwrap()
    }

    /// Listing-3-style fused nest: all CSF levels tracked.
    fn tracked_tape() -> CompiledTape {
        compiled(false)
    }

    /// Same nest with the root sparse mode iterated densely — compiles
    /// finger-search resolvers.
    fn resolver_tape() -> CompiledTape {
        compiled(true)
    }

    /// Outer-product nest whose Eq.-5 buffer is written by exactly one
    /// GER: compiled with superinstructions pinned on, the `Zero` and
    /// the full-coverage `Ger` fuse into a `ZeroGer`. Uses
    /// `auto_detected` (not `resolve`) so the program shape ignores the
    /// `SPTTN_MICROKERNELS` environment override the scalar-forced CI
    /// leg sets.
    fn fused_ger_tape() -> CompiledTape {
        let k = parse_kernel(
            "S(i) = T(i,r,s) * U(r) * V(s)",
            &[("i", 6), ("r", 4), ("s", 8)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![1, 2], vec![0, 1, 2]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &path, &forest, None);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    /// Listing-3 nest with the buffer's innermost extent on a
    /// specialization rank (8): compiled with fusion on, its AXPY
    /// sites record `RankSpec::R8`.
    fn specialized_tape() -> CompiledTape {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 8)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &path, &forest, None);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    #[test]
    fn valid_tapes_verify_clean() {
        for tape in [tracked_tape(), resolver_tape()] {
            let report = tape.verify().expect("compiler output must verify");
            assert_eq!(report.instrs, tape.num_instrs());
            assert!(report.max_nesting <= report.frame_capacity);
            assert!(report.accesses_checked > 0);
            assert!(report.zeros > 0, "Eq.-5 split points placed");
        }
        let r = resolver_tape().verify().unwrap();
        assert!(
            r.resolver_sites > 0,
            "resolver nest exercises check_resolver"
        );
    }

    #[test]
    fn report_displays_counts() {
        let report = tracked_tape().verify().unwrap();
        let text = format!("{report}");
        assert!(text.contains("verified"));
        assert!(text.contains("zero points"));
    }

    // ----- mutation suite: one corruption class per test ------------

    /// Class 1: drop a `Zero` — the Eq.-5 split-point reset vanishes
    /// and the buffer accumulation is no longer dominated.
    #[test]
    fn mutation_dropped_zero_rejected() {
        let mut tape = tracked_tape();
        let zero_at = tape
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Zero { .. }))
            .expect("nest has a split point");
        tape.instrs.remove(zero_at);
        // Patch every loop end past the removal so the structure stays
        // intact and only the zero is missing.
        for ins in &mut tape.instrs {
            match ins {
                Instr::Dense { end, .. } | Instr::Sparse { end, .. } if *end > zero_at => {
                    *end -= 1;
                }
                _ => {}
            }
        }
        match tape.verify() {
            Err(TapeInvariantError::MissingZero { .. }) => {}
            other => panic!("expected MissingZero, got {other:?}"),
        }
    }

    /// Class 2: skew a stride — the cursor's worst-case offset leaves
    /// its backing store.
    #[test]
    fn mutation_skewed_stride_rejected() {
        let mut tape = tracked_tape();
        let e = tape
            .adv
            .iter_mut()
            .max_by_key(|e| e.stride)
            .expect("nest advances cursors");
        e.stride *= 1000;
        match tape.verify() {
            Err(TapeInvariantError::CursorOutOfBounds { .. }) => {}
            other => panic!("expected CursorOutOfBounds, got {other:?}"),
        }
    }

    /// Class 3: shrink the frame stack — nesting overflows the
    /// preallocated capacity.
    #[test]
    fn mutation_frame_overflow_rejected() {
        let mut tape = tracked_tape();
        assert!(tape.max_depth > 1);
        tape.max_depth = 1;
        match tape.verify() {
            Err(TapeInvariantError::FrameOverflow { capacity: 1, .. }) => {}
            other => panic!("expected FrameOverflow, got {other:?}"),
        }
    }

    /// Class 4: dangle a resolver level — the descent no longer ends
    /// at the level its use site needs.
    #[test]
    fn mutation_dangling_resolver_rejected() {
        let mut tape = resolver_tape();
        assert!(!tape.resolvers.is_empty(), "nest compiles resolvers");
        tape.resolvers[0].levels.pop();
        if tape.resolvers[0].levels.is_empty() {
            tape.resolvers[0] = ResolverSpec {
                start: 0,
                levels: Vec::new(),
            };
        }
        match tape.verify() {
            Err(TapeInvariantError::ResolverInvariant { .. }) => {}
            other => panic!("expected ResolverInvariant, got {other:?}"),
        }
    }

    /// Class 5: out-of-range operand — a cursor id past the allocated
    /// cursor count (the advance table is checked up front).
    #[test]
    fn mutation_cursor_out_of_range_rejected() {
        let mut tape = tracked_tape();
        let n = tape.n_cursors;
        tape.adv.push(AdvEntry { cur: n, stride: 1 });
        match tape.verify() {
            Err(TapeInvariantError::OperandOutOfRange { got, limit, .. }) => {
                assert_eq!((got, limit), (n, n));
            }
            other => panic!("expected OperandOutOfRange, got {other:?}"),
        }
    }

    /// Class 6: break the loop structure — a header's end target no
    /// longer lands past its own EndLoop.
    #[test]
    fn mutation_malformed_loop_rejected() {
        let mut tape = tracked_tape();
        let header = tape
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Dense { .. } | Instr::Sparse { .. }))
            .expect("nest has loops");
        match &mut tape.instrs[header] {
            Instr::Dense { end, .. } | Instr::Sparse { end, .. } => *end = header + 1,
            _ => unreachable!(),
        }
        match tape.verify() {
            Err(TapeInvariantError::MalformedLoop { .. }) => {}
            other => panic!("expected MalformedLoop, got {other:?}"),
        }
    }

    /// Class 7: skew a dense extent — the baked-in trip count
    /// disagrees with the kernel's declared dimension.
    #[test]
    fn mutation_extent_mismatch_rejected() {
        // The flipped-root nest keeps a real Dense header (the fully
        // tracked nest lowers every dense loop to a microkernel).
        let mut tape = resolver_tape();
        let d = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Dense { dim, .. } => Some(dim),
                _ => None,
            })
            .expect("nest has dense loops");
        *d += 1;
        match tape.verify() {
            Err(TapeInvariantError::ExtentMismatch { .. }) => {}
            other => panic!("expected ExtentMismatch, got {other:?}"),
        }
    }

    /// Fused and rank-specialized programs are first-class citizens of
    /// the verifier: both compile-time shapes verify clean, establish
    /// zero domination through the superinstruction, and show up in
    /// the report.
    #[test]
    fn fused_tapes_verify_clean() {
        let tape = fused_ger_tape();
        assert!(tape.superinstructions() > 0, "Zero+Ger fused");
        let report = tape.verify().expect("fused tape must verify");
        assert!(report.zero_accums > 0);
        assert_eq!(
            report.zeros, 0,
            "the only split point fused into the superinstruction"
        );

        let tape = specialized_tape();
        assert!(tape.specialized() > 0, "rank-8 buffer pins R8 kernels");
        let report = tape.verify().expect("specialized tape must verify");
        assert!(report.specialized > 0);
        let text = format!("{report}");
        assert!(text.contains("rank-specialized"));
    }

    /// Class 9: shrink a fused superinstruction's extent — it no
    /// longer assigns the whole buffer, so elements past the covered
    /// range would keep stale values.
    #[test]
    fn mutation_partial_zero_accum_rejected() {
        let mut tape = fused_ger_tape();
        let m = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::ZeroGer { m, .. } => Some(m),
                _ => None,
            })
            .expect("nest fuses a ZeroGer");
        *m -= 1;
        match tape.verify() {
            Err(TapeInvariantError::ZeroAccumCoverage { covered, len, .. }) => {
                assert!(covered < len);
            }
            other => panic!("expected ZeroAccumCoverage, got {other:?}"),
        }
    }

    /// Class 10: retarget a fused superinstruction at the dense output
    /// — only Eq.-5 buffers have a zero point to fuse.
    #[test]
    fn mutation_output_zero_accum_rejected() {
        let mut tape = fused_ger_tape();
        let a = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::ZeroGer { a, .. } => Some(a),
                _ => None,
            })
            .expect("nest fuses a ZeroGer");
        a.out = true;
        match tape.verify() {
            Err(TapeInvariantError::ZeroAccumCoverage { covered: 0, .. }) => {}
            other => panic!("expected ZeroAccumCoverage with zero coverage, got {other:?}"),
        }
    }

    /// Class 11: skew a rank-specialized site's trip count — the
    /// pinned fixed-rank kernel would assert (or sweep out of bounds)
    /// at run time.
    #[test]
    fn mutation_specialized_trip_count_rejected() {
        let mut tape = specialized_tape();
        let n = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Axpy { n, spec, .. } if spec.rank().is_some() => Some(n),
                _ => None,
            })
            .expect("nest records a rank-specialized AXPY");
        *n -= 1;
        match tape.verify() {
            Err(TapeInvariantError::SpecializationMismatch { rank: 8, .. }) => {}
            other => panic!("expected SpecializationMismatch, got {other:?}"),
        }
    }

    /// Class 8: untrack a resolver level — a `Tracked` descent step at
    /// a level no enclosing loop tracks.
    #[test]
    fn mutation_untracked_level_rejected() {
        let mut tape = resolver_tape();
        let spec = tape
            .resolvers
            .iter_mut()
            .find(|s| {
                s.levels
                    .iter()
                    .any(|l| matches!(l, ResLevel::Search { .. }))
            })
            .expect("nest compiles searched resolvers");
        // Turn a searched level into a tracked one: nothing on the
        // stack tracks it at the use site.
        for l in &mut spec.levels {
            if matches!(l, ResLevel::Search { .. }) {
                *l = ResLevel::Tracked;
                break;
            }
        }
        match tape.verify() {
            Err(
                TapeInvariantError::TrackingInvariant { .. }
                | TapeInvariantError::ResolverInvariant { .. },
            ) => {}
            other => panic!("expected a tracking/resolver error, got {other:?}"),
        }
    }
}
