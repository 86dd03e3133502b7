//! `dejavu-perf` — see the crate docs and `README.md`. Run it through
//! `crates/perf/run.sh`, which builds release and pins the CPU.

use dejavu_perf::alloc::CountingAlloc;
use dejavu_perf::ledger::{self, Cli};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dejavu-perf: {e}\n{}", ledger::USAGE);
            std::process::exit(2);
        }
    };
    std::process::exit(ledger::main(&cli));
}
