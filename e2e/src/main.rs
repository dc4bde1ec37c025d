//! `hc-e2e` binary: see [`hc_e2e::cli`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(hc_e2e::cli::main(&argv));
}
