//! `gorder-perfbench`: see the library docs and README.md.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    gorder_perfbench::main(&args)
}
