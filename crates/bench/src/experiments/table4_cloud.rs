//! Table 4: cloud cost comparison — AWS p3.8xlarge (4x V100) vs Genesis
//! (4x RTX 3090), with and without CGX, on BERT question answering.
//!
//! Paper shape: AWS+NCCL leads Genesis+NCCL on raw throughput, but
//! Genesis+CGX nearly matches AWS raw throughput and roughly doubles its
//! tokens/second/$.

use crate::cloud::{cost_efficiency, table4_offers};
use crate::{fmt_items, note, render_table};
use cgx_models::ModelId;

pub fn run() -> String {
    let results: Vec<_> = table4_offers()
        .iter()
        .map(|offer| cost_efficiency(offer, ModelId::BertBase))
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                fmt_items(r.throughput),
                format!("{:.1}", r.price_per_hour),
                format!("{:.0}", r.items_per_second_per_dollar),
            ]
        })
        .collect();
    let mut out = render_table(
        "Table 4: cloud training cost efficiency (BERT-QA)",
        &[
            "Instance",
            "Throughput (tok/s)",
            "Price per hour ($)",
            "Tokens/second per $",
        ],
        &rows,
    );
    note(
        &mut out,
        "paper: 4737 / 14407 / 14171 tok/s and 696 / 1181 / 2083 tok/s/$.",
    );
    let (aws, cgx) = (&results[1], &results[2]);
    note(
        &mut out,
        &format!(
            "Genesis+CGX delivers {:.0}% of AWS's raw throughput at {:.1}x its cost efficiency.",
            100.0 * cgx.throughput / aws.throughput,
            cgx.items_per_second_per_dollar / aws.items_per_second_per_dollar,
        ),
    );
    out
}
