//! Extension: simulator scale-out — CSR construction cost and wave
//! throughput beyond the paper's network sizes (DESIGN.md §4.10).
//!
//! ```sh
//! cargo run --release -p sensjoin-bench --bin sim_scaling
//! ```
//! Set `SENSJOIN_N` to override the size parameter (default 1500; the
//! sweep sizes scale with it, up to 667x for the tree build).

fn main() {
    let n: usize = std::env::var("SENSJOIN_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    let seed: u64 = std::env::var("SENSJOIN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(sensjoin_bench::SEED);
    println!("{}", sensjoin_bench::experiments::sim_scaling(n, seed));
}
