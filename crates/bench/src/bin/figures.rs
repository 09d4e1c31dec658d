//! Runs every experiment (Figures 7-29 plus the streaming, subscription,
//! HTAP, open-loop and scale figures). Pass `--quick` for CI sizes, `--threads N` to size the
//! worker pool, `--seed S` to re-roll data.
//!
//! Each figure runs guarded: a panic (or a failed internal equality
//! check) is recorded, the remaining figures still run, and the process
//! exits non-zero at the end — so CI smoke jobs fail on divergence
//! without losing the other figures' output.

fn main() {
    adp_bench::cli::init();
    use adp_bench::checks::{finish, run_guarded};
    use adp_bench::experiments as e;
    run_guarded("fig07", e::fig07);
    run_guarded("fig08_09", e::fig08_09);
    run_guarded("fig10_11", e::fig10_11);
    run_guarded("fig12_13", e::fig12_13);
    run_guarded("fig14_15", e::fig14_15);
    run_guarded("fig_zipf_hard", e::fig_zipf_hard);
    run_guarded("fig_zipf_easy", e::fig_zipf_easy);
    run_guarded("fig_stream", e::fig_stream);
    run_guarded("fig_subscribe", e::fig_subscribe);
    run_guarded("fig_htap", e::fig_htap);
    run_guarded("fig_open_loop", e::fig_open_loop);
    run_guarded("fig_scale", e::fig_scale);
    run_guarded("fig28", e::fig28);
    run_guarded("fig29", e::fig29);
    finish();
}
