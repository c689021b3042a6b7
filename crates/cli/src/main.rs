//! `sensjoin` — run join queries over simulated sensor networks; `sensjoin
//! help` lists the subcommands and `sensjoin <command> --help` their options.

mod args;
mod commands;
mod csvdata;
mod spec;

use args::Args;

fn main() {
    let code = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => commands::dispatch(&args),
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}
