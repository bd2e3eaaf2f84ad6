//! Incremental graph reconstruction (the *graph reconstruction* phase of
//! Figure 1).
//!
//! After spill-code insertion, the interference graph changes in a very
//! local way: the spilled nodes disappear, and a handful of tiny spill
//! temporaries appear at the spilled nodes' reference sites. Rebuilding
//! liveness, webs, and the whole graph from scratch (the default) is
//! wasteful; this module instead *updates* the previous round's
//! [`FuncContext`]:
//!
//! * surviving nodes keep their attributes, with instruction indices
//!   remapped through the spill rewrite;
//! * each temporary becomes a fresh unspillable node whose interference is
//!   a sound over-approximation: everything its spilled parent interfered
//!   with (anything live at the temporary's site was live at one of the
//!   parent's reference sites), plus the other temporaries at the same
//!   instruction.
//!
//! The over-approximation can only *add* edges relative to a rebuild, so
//! colorings stay conflict-free; allocation quality is typically identical
//! (temporaries are far below any bank's size in degree). Enable it with
//! [`crate::AllocatorConfig::incremental_reconstruction`].

use std::collections::{HashMap, HashSet};

use ccra_ir::Function;

use crate::build::FuncContext;
use crate::graph::InterferenceGraph;
use crate::node::{NodeInfo, SPILL_TEMP_COST};
use crate::spill::SpillRewrite;

/// Like [`reconstruct_context`], wrapped in a `reconstruct` phase span
/// emitted through the trace context.
pub(crate) fn reconstruct_context_traced(
    ctx: &FuncContext,
    rewrite: &SpillRewrite,
    spilled: &[u32],
    f: &Function,
    tr: &mut crate::trace::TraceCtx<'_>,
) -> FuncContext {
    let span = tr.span();
    let out = reconstruct_context(ctx, rewrite, spilled, f);
    tr.span_end(span, crate::trace::Phase::Reconstruct);
    tr.count("reconstruct_rounds_total", 1);
    tr.count("reconstruct_temps_total", rewrite.temps.len() as u64);
    out
}

/// Updates `ctx` in place of a full rebuild after one spill round.
///
/// `spilled` and `rewrite` must come from the same round;
/// `f` is the function *after* spill-code insertion.
pub fn reconstruct_context(
    ctx: &FuncContext,
    rewrite: &SpillRewrite,
    spilled: &[u32],
    f: &Function,
) -> FuncContext {
    let spilled_set: HashSet<u32> = spilled.iter().copied().collect();
    let remap = |bb: ccra_ir::BlockId, idx: u32| -> u32 {
        match rewrite.index_maps.get(&bb) {
            Some(map) if (idx as usize) < map.len() => map[idx as usize],
            // Terminator references (index == original length) move to the
            // new block length.
            _ => f.block(bb).insts.len() as u32,
        }
    };

    // Compact the surviving nodes.
    let mut new_of_old: HashMap<u32, u32> = HashMap::new();
    let mut nodes: Vec<NodeInfo> = Vec::with_capacity(ctx.nodes.len());
    for (old, node) in ctx.nodes.iter().enumerate() {
        if spilled_set.contains(&(old as u32)) {
            continue;
        }
        let mut node = node.clone();
        for (bb, i, _) in node.defs.iter_mut().chain(node.uses.iter_mut()) {
            *i = remap(*bb, *i);
        }
        new_of_old.insert(old as u32, nodes.len() as u32);
        nodes.push(node);
    }

    // Remap the call sites and the webs.
    let mut callsites = ctx.callsites.clone();
    for site in &mut callsites {
        site.idx = remap(site.bb, site.idx);
    }
    let mut webs = ctx.webs.clone();
    webs.remap_indices(remap);

    // Surviving web → node mapping.
    let mut web_node: HashMap<ccra_analysis::WebId, u32> = ctx
        .web_node
        .iter()
        .filter_map(|(&w, &old)| new_of_old.get(&old).map(|&new| (w, new)))
        .collect();

    // Spill temporaries: one unspillable node each.
    let entry_freq = ctx.entry_freq;
    let mut temp_ids: Vec<u32> = Vec::with_capacity(rewrite.temps.len());
    for t in &rewrite.temps {
        let idx = if t.idx == u32::MAX {
            f.block(t.bb).insts.len() as u32
        } else {
            t.idx
        };
        let id = nodes.len() as u32;
        temp_ids.push(id);
        let (defs, uses) = if t.is_def {
            (vec![(t.bb, idx, t.vreg)], vec![])
        } else {
            (vec![], vec![(t.bb, idx, t.vreg)])
        };
        let web = webs.add_synthetic(t.vreg, (t.bb, idx), t.is_def);
        web_node.insert(web, id);
        nodes.push(NodeInfo {
            class: f.class_of(t.vreg),
            spill_cost: SPILL_TEMP_COST,
            caller_cost: 0.0,
            callee_cost: entry_freq * 2.0,
            size: 1,
            calls_crossed: Vec::new(),
            webs: vec![web],
            is_spill_temp: true,
            defs,
            uses,
            param_vregs: Vec::new(),
        });
    }

    // Edges: survivor–survivor edges carry over; each temporary interferes
    // with its parent's surviving neighbors and with co-located temps.
    let mut graph = InterferenceGraph::new(nodes.len());
    for old_a in 0..ctx.nodes.len() as u32 {
        let Some(&a) = new_of_old.get(&old_a) else {
            continue;
        };
        for &old_b in ctx.graph.neighbors(old_a) {
            if old_a < old_b {
                if let Some(&b) = new_of_old.get(&old_b) {
                    graph.add_edge(a, b);
                }
            }
        }
    }
    let mut by_site: HashMap<(ccra_ir::BlockId, u32), Vec<u32>> = HashMap::new();
    for (t, &id) in rewrite.temps.iter().zip(&temp_ids) {
        let class = nodes[id as usize].class;
        let site = if t.idx == u32::MAX {
            (t.bb, f.block(t.bb).insts.len() as u32)
        } else {
            (t.bb, t.idx)
        };
        for &old_n in ctx.graph.neighbors(t.parent) {
            let Some(&n) = new_of_old.get(&old_n) else {
                continue;
            };
            if nodes[n as usize].class != class {
                continue;
            }
            // A temporary lives only in its instruction's immediate
            // vicinity. Non-temp neighbors of the parent may be live there;
            // temps from earlier rounds only if they reference the very
            // same instruction. Inheriting edges to *all* earlier temps
            // would compound across rounds into artificial temp cliques.
            let neighbor = &nodes[n as usize];
            if neighbor.is_spill_temp {
                let co_located = neighbor
                    .defs
                    .iter()
                    .chain(&neighbor.uses)
                    .any(|&(bb, i, _)| (bb, i) == site);
                if !co_located {
                    continue;
                }
            }
            graph.add_edge(id, n);
        }
        by_site.entry(site).or_default().push(id);
    }
    for (_, ids) in by_site {
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if nodes[a as usize].class == nodes[b as usize].class {
                    graph.add_edge(a, b);
                }
            }
        }
    }

    FuncContext {
        nodes,
        graph,
        callsites,
        entry_freq,
        web_node,
        webs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_context;
    use crate::spill::insert_spill_code_traced;
    use ccra_analysis::FrequencyInfo;
    use ccra_ir::{BinOp, Callee, CmpOp, FunctionBuilder, Program, RegClass};
    use ccra_machine::CostModel;

    fn sample_program() -> Program {
        let mut b = FunctionBuilder::new("main");
        let vs: Vec<_> = (0..6).map(|_| b.new_vreg(RegClass::Int)).collect();
        for (j, &v) in vs.iter().enumerate() {
            b.iconst(v, j as i64);
        }
        let i = b.new_vreg(RegClass::Int);
        let n = b.new_vreg(RegClass::Int);
        let one = b.new_vreg(RegClass::Int);
        let acc = b.new_vreg(RegClass::Int);
        b.iconst(i, 0);
        b.iconst(n, 10);
        b.iconst(one, 1);
        b.iconst(acc, 0);
        let head = b.reserve_block();
        let body = b.reserve_block();
        let exit = b.reserve_block();
        b.jump(head);
        b.switch_to(head);
        let c = b.new_vreg(RegClass::Int);
        b.cmp(CmpOp::Lt, c, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.call(Callee::External("g"), vec![], None);
        for &v in &vs {
            b.binary(BinOp::Add, acc, acc, v);
        }
        b.binary(BinOp::Add, i, i, one);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(acc));
        let mut p = Program::new();
        let id = p.add_function(b.finish());
        p.set_main(id);
        p
    }

    /// The reconstructed graph must contain every edge a rebuild finds
    /// (it may contain more — it is a sound over-approximation).
    #[test]
    fn reconstruction_is_a_superset_of_rebuild() {
        let p = sample_program();
        let id = p.main().expect("main set");
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let ctx = build_context(p.function(id), freq.func(id), &CostModel::paper())
            .expect("context builds");
        // Spill two mid-cost nodes.
        let spilled: Vec<u32> = (0..ctx.nodes.len() as u32)
            .filter(|&n| !ctx.nodes[n as usize].is_spill_temp)
            .take(2)
            .collect();
        let mut body = p.function(id).clone();
        let rw = insert_spill_code_traced(&mut body, &ctx, &spilled).expect("spill code inserts");
        assert!(rw.inserted > 0);
        let recon = reconstruct_context(&ctx, &rw, &spilled, &body);
        let rebuilt =
            build_context(&body, freq.func(id), &CostModel::paper()).expect("context builds");

        assert_eq!(
            recon.nodes.len(),
            rebuilt.nodes.len(),
            "same node population"
        );
        // Match nodes across the two contexts by shared reference sites
        // (a (block, index, vreg) triple belongs to exactly one node; the
        // rebuild gives temporaries an extra ref at their spill load/store,
        // which simply fails the lookup and falls through to the next ref).
        let mut recon_of_ref: HashMap<(u32, u32, u32), u32> = HashMap::new();
        for n in 0..recon.nodes.len() as u32 {
            let node = &recon.nodes[n as usize];
            for &(bb, i, v) in node.defs.iter().chain(&node.uses) {
                recon_of_ref.insert((bb.0, i, v.0), n);
            }
        }
        let find_in_recon = |n: u32| -> u32 {
            let node = &rebuilt.nodes[n as usize];
            node.defs
                .iter()
                .chain(&node.uses)
                .find_map(|&(bb, i, v)| recon_of_ref.get(&(bb.0, i, v.0)).copied())
                .unwrap_or_else(|| unreachable!("rebuilt node {n} has no counterpart: {node:?}"))
        };
        for a in 0..rebuilt.nodes.len() as u32 {
            for &b in rebuilt.graph.neighbors(a) {
                if a < b {
                    let (ca, cb) = (find_in_recon(a), find_in_recon(b));
                    assert!(
                        recon.graph.interferes(ca, cb),
                        "edge {a}-{b} of the rebuild is missing in the reconstruction"
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruction_remaps_callsites() {
        let p = sample_program();
        let id = p.main().expect("main set");
        let freq = FrequencyInfo::profile(&p).expect("profile runs");
        let ctx = build_context(p.function(id), freq.func(id), &CostModel::paper())
            .expect("context builds");
        let spilled: Vec<u32> = (0..2u32)
            .filter(|&n| !ctx.nodes[n as usize].is_spill_temp)
            .collect();
        let mut body = p.function(id).clone();
        let rw = insert_spill_code_traced(&mut body, &ctx, &spilled).expect("spill code inserts");
        let recon = reconstruct_context(&ctx, &rw, &spilled, &body);
        for site in &recon.callsites {
            assert!(
                body.block(site.bb).insts[site.idx as usize].is_call(),
                "call site remapped to a non-call instruction"
            );
        }
    }
}
