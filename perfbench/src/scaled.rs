//! The `scaled` workload's input generator: annotated N-entry FIFO buffers
//! in the style of the corpus's O1 `noc_buffer`, at sizes from a fixed menu.
//!
//! Every menu size is emitted twice:
//!
//! * **fixed** — the request side is ready only while the buffer is not
//!   full, so every accepted request is eventually answered and the whole
//!   property set holds;
//! * **buggy** — the request side is always ready, so a push into a full
//!   buffer is dropped (O1's Bug2 at a larger size).
//!
//! The seed renames the module, the transaction, every port and register,
//! and permutes the port list, the declarations, the continuous
//! assignments (and whether they precede or follow the always blocks) and
//! the two exclusive counter branches.  None of that changes the circuit's behaviour, so the
//! expected verdicts follow from the construction alone (see
//! [`crate::expect`]), and the size mix — hence the cost — is the same for
//! every seed.

use crate::rng::Rng;

/// One buffer size of the menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Size {
    /// FIFO entries.
    pub depth: usize,
    /// Width of the transaction ID carried through the buffer.
    pub id_width: usize,
}

/// The fixed size menu, as `(size, copies)`: each copy is generated with
/// its own names, so one pass verifies `copies` differently named buffers
/// of that size in each variant.  Every instance decides every property
/// well inside the per-property budget; the fixed instances spend most of
/// their time in PDR on the liveness-to-safety product and the buggy ones
/// re-minimizing the counterexample the fuzzer found.
///
/// The costs of the buffers vary with their names (the seed changes the
/// elaborated variable order), so the median needs many like-costed runs to
/// be steady across seeds, and it must fall inside one group of them, not
/// on the edge between two groups where it would jump with every seed.
/// Sorted by cost the runs group as 2-bit-ID buggy (6), 2-bit-ID fixed (6),
/// then the 3- and 4-bit-ID runs (6): the median is the middle of the
/// 2-bit-ID fixed buffers, and the larger ones carry most of the engine
/// time.
pub const MENU: &[(Size, usize)] = &[
    (
        Size {
            depth: 2,
            id_width: 2,
        },
        6,
    ),
    (
        Size {
            depth: 2,
            id_width: 3,
        },
        1,
    ),
    (
        Size {
            depth: 2,
            id_width: 4,
        },
        2,
    ),
];

/// One generated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledDesign {
    /// Seed-independent label, e.g. `d2w3-fixed-1` (the run id).
    pub label: String,
    /// The menu size.
    pub size: Size,
    /// Which copy of its size and variant (0-based).
    pub copy: usize,
    /// `true` for the always-ready (overflowing) variant.
    pub buggy: bool,
    /// Top module name (seed-chosen).
    pub module: String,
    /// Annotated transaction name (seed-chosen); property names are
    /// `<directive>__<txn>_<kind>`.
    pub txn: String,
    /// The annotated SystemVerilog source.
    pub source: String,
}

const MODULE_STEMS: &[&str] = &[
    "noc",
    "mem_engine",
    "mshr",
    "dma",
    "tile",
    "egress",
    "l2_miss",
];
const MODULE_KINDS: &[&str] = &["buffer", "fifo", "queue", "stage"];
const TXN_STEMS: &[&str] = &["ingress", "fill", "noc1", "xfer", "refill", "wb"];
const REQ_PREFIXES: &[&str] = &["enq", "push_side", "src", "noc1buf_req", "wr_port"];
const RES_PREFIXES: &[&str] = &["deq", "pop_side", "dst", "noc1buf_res", "rd_port"];
const ID_NAMES: &[&str] = &["mshrid", "tag", "txid", "id"];
const SLOT_STEMS: &[&str] = &["mem", "slot", "entry", "stash"];
const COUNT_STEMS: &[&str] = &["cnt", "occ", "level", "fill_cnt"];
const PUSH_WIRES: &[&str] = &["do_push", "wr_fire", "enq_hsk"];
const POP_WIRES: &[&str] = &["do_pop", "rd_fire", "deq_hsk"];

/// Bits needed to hold the values `0..=n`.
fn bits_for(n: usize) -> usize {
    (usize::BITS - n.leading_zeros()) as usize
}

fn range(width: usize) -> String {
    format!("[{}:0]", width - 1)
}

/// Generates every menu size as a fixed and a buggy design, in menu order
/// (the caller permutes the run order).  Pure function of `seed`.
pub fn generate(seed: u64) -> Vec<ScaledDesign> {
    let mut rng = Rng::new(seed ^ 0x5CA1_ED00_F1F0_0001);
    let mut out = Vec::new();
    for &(size, copies) in MENU {
        for copy in 0..copies {
            for buggy in [false, true] {
                out.push(design(size, buggy, copy, &mut rng));
            }
        }
    }
    out
}

fn design(size: Size, buggy: bool, copy: usize, rng: &mut Rng) -> ScaledDesign {
    let tag = rng.next_u64() & 0xFFFF;
    let module = format!(
        "{}_{}_{tag:04x}",
        rng.pick(MODULE_STEMS),
        rng.pick(MODULE_KINDS)
    );
    let txn = format!("{}_{tag:04x}", rng.pick(TXN_STEMS));
    let req = *rng.pick(REQ_PREFIXES);
    let res = *rng.pick(RES_PREFIXES);
    let id = *rng.pick(ID_NAMES);
    let slot = *rng.pick(SLOT_STEMS);
    let count = format!("{}_q", rng.pick(COUNT_STEMS));
    let push = *rng.pick(PUSH_WIRES);
    let pop = *rng.pick(POP_WIRES);

    let d = size.depth;
    let w = size.id_width;
    let c = bits_for(d);
    let idr = range(w);
    let slots: Vec<String> = (0..d).map(|i| format!("{slot}{i}_q")).collect();

    let mut ports = vec![
        format!("input  logic       {req}_val"),
        format!("output logic       {req}_ack"),
        format!("input  logic {idr} {req}_{id}"),
        format!("output logic       {res}_val"),
        format!("input  logic       {res}_ack"),
        format!("output logic {idr} {res}_{id}"),
    ];
    rng.shuffle(&mut ports);

    let mut decls: Vec<String> = slots
        .iter()
        .map(|s| format!("  logic {idr} {s};\n"))
        .collect();
    decls.push(format!("  logic {} {count};\n", range(c)));
    rng.shuffle(&mut decls);

    let mut blocks: Vec<String> = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        let mut b = String::new();
        b.push_str("  always_ff @(posedge clk_i or negedge rst_ni) begin\n");
        b.push_str(&format!("    if (!rst_ni) begin\n      {s} <= {w}'d0;\n"));
        // Push and pop together: the queue shifts and the new entry lands
        // behind the surviving ones.
        b.push_str(&format!(
            "    end else if ({pop} && {push} && {count} == {c}'d{}) begin\n      {s} <= {req}_{id};\n",
            i + 1
        ));
        if i + 1 < d {
            b.push_str(&format!(
                "    end else if ({pop}) begin\n      {s} <= {};\n",
                slots[i + 1]
            ));
        }
        // A push alone fills the first free entry; a push into a full
        // buffer (only possible in the buggy variant) matches no entry and
        // is dropped.
        b.push_str(&format!(
            "    end else if ({push} && !{pop} && {count} == {c}'d{i}) begin\n      {s} <= {req}_{id};\n"
        ));
        b.push_str("    end\n  end\n");
        blocks.push(b);
    }
    let mut branches = vec![
        format!(
            "    end else if ({push} && !{pop} && {count} != {c}'d{d}) begin\n      {count} <= {count} + {c}'d1;\n"
        ),
        format!("    end else if ({pop} && !{push}) begin\n      {count} <= {count} - {c}'d1;\n"),
    ];
    rng.shuffle(&mut branches);
    blocks.push(format!(
        "  always_ff @(posedge clk_i or negedge rst_ni) begin\n    if (!rst_ni) begin\n      {count} <= {c}'d0;\n{}    end\n  end\n",
        branches.concat()
    ));
    let ready = if buggy {
        // The bug: ready even when full, so an overflowing push is lost.
        "1'b1".to_string()
    } else {
        format!("{count} != {c}'d{d}")
    };
    let mut assigns = vec![
        format!("  assign {req}_ack = {ready};\n"),
        format!("  assign {res}_val = {count} != {c}'d0;\n"),
        format!("  assign {res}_{id} = {};\n", slots[0]),
    ];
    rng.shuffle(&mut assigns);
    let assigns = assigns.concat();
    // The always blocks keep one order: each register's reads come before
    // its write (slot i reads slot i+1, every slot reads the counter), the
    // order every corpus design is written in.  The elaborator gives a read
    // that follows a nonblocking write in another (or the same) block the
    // written value, so permuting the blocks would change the circuit.
    let body = if rng.below(2) == 0 {
        format!("{assigns}\n{}", blocks.join("\n"))
    } else {
        format!("{}\n{assigns}", blocks.join("\n"))
    };

    let variant = if buggy { "buggy" } else { "fixed" };
    let mut src = String::new();
    src.push_str(&format!(
        "// {d}-entry FIFO buffer carrying a {w}-bit transaction ID ({variant} variant).\n"
    ));
    src.push_str(&format!(
        "/*AUTOSVA\n{txn}: {req} -in> {res}\n{idr} {req}_transid = {req}_{id}\n{idr} {res}_transid = {res}_{id}\n*/\n"
    ));
    src.push_str(&format!(
        "module {module} (\n  input  logic       clk_i,\n  input  logic       rst_ni,\n  {}\n);\n\n",
        ports.join(",\n  ")
    ));
    src.push_str(&decls.concat());
    src.push_str(&format!("\n  wire {push} = {req}_val && {req}_ack;\n"));
    src.push_str(&format!("  wire {pop} = {res}_val && {res}_ack;\n\n"));
    src.push_str(&body);
    src.push_str("\nendmodule\n");

    ScaledDesign {
        label: format!("d{d}w{w}-{variant}-{copy}"),
        size,
        copy,
        buggy,
        module,
        txn,
        source: src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expect::{check_report, Expectation};
    use crate::workload::scaled_options;
    use autosva::{generate_ft, AutosvaOptions};
    use autosva_formal::checker::verify;

    fn concat(designs: &[ScaledDesign]) -> String {
        designs.iter().map(|d| d.source.as_str()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_rtl() {
        assert_eq!(concat(&generate(11)), concat(&generate(11)));
        assert_eq!(generate(0), generate(0));
    }

    #[test]
    fn other_seeds_change_names_and_order_but_keep_the_size_mix() {
        let a = generate(1);
        let b = generate(2);
        assert_ne!(concat(&a), concat(&b));
        assert!(a.iter().zip(&b).any(|(x, y)| x.module != y.module));
        let mix = |v: &[ScaledDesign]| -> Vec<(Size, bool, String)> {
            v.iter()
                .map(|d| (d.size, d.buggy, d.label.clone()))
                .collect()
        };
        assert_eq!(mix(&a), mix(&b));
        assert_eq!(
            a.len(),
            2 * MENU.iter().map(|(_, copies)| copies).sum::<usize>()
        );
        // Statement order is permuted too, not only names: some seed among
        // a handful places the ready assignment elsewhere in the body.
        let assign_pos = |d: &ScaledDesign| {
            let body = &d.source[d.source.find(");").unwrap()..];
            body.find("_ack = ").unwrap() * 1000 / body.len()
        };
        let positions: std::collections::BTreeSet<usize> =
            (0..8).map(|s| assign_pos(&generate(s)[0])).collect();
        assert!(positions.len() > 1);
    }

    #[test]
    fn smallest_fixed_and_buggy_sizes_meet_their_expectations() {
        let smallest = MENU.iter().map(|(size, _)| *size).min().unwrap();
        for design in generate(5)
            .into_iter()
            .filter(|d| d.size == smallest && d.copy == 0)
        {
            let ft = generate_ft(&design.source, &AutosvaOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", design.label));
            let report = verify(&design.source, &ft, &scaled_options(&design, 1, None))
                .unwrap_or_else(|e| panic!("{}: {e}", design.label));
            let expectation = Expectation::scaled(&design);
            let errors = check_report(&expectation, &report);
            assert!(
                errors.is_empty(),
                "{}: {errors:?}\n{}",
                design.label,
                report.render()
            );
        }
    }
}
