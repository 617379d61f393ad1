//! `strip-shell` — an interactive SQL shell over a fresh STRIP database.
//!
//! ```text
//! $ cargo run --bin strip-shell
//! strip> create table stocks (symbol str, price float);
//! ok
//! strip> insert into stocks values ('IBM', 101.5);
//! 1 row affected
//! strip> select * from stocks;
//! +--------+-------+
//! | symbol | price |
//! +--------+-------+
//! | IBM    | 101.5 |
//! +--------+-------+
//! ```
//!
//! Statements end with `;`; `.help` lists meta commands (`.drain`,
//! `.advance`, `.stats`, ...). Rules and timers work too — register demo
//! user functions from SQL-visible tables is not possible in a shell, so
//! the shell pre-registers a `log_changes` function that prints any bound
//! table named `changes`, usable as `... then execute log_changes`.

use std::io::{BufRead, Write};
use strip::core::Strip;
use strip::shell::{run_shell_input, StatementBuffer};

fn main() {
    // The default sink's windowed telemetry (1 s virtual-time windows,
    // 512-frame ring) gives `.slo` / `.hot` live data.
    let db = Strip::new();
    // A demo action so `create rule ... execute log_changes` does something
    // visible in the shell.
    db.register_function("log_changes", |txn| {
        for name in txn.bound_names() {
            if let Some(t) = txn.bound(&name) {
                println!("[rule] bound table `{name}` with {} row(s)", t.len());
                for i in 0..t.len().min(10) {
                    println!("[rule]   {:?}", t.row_values(i));
                }
            }
        }
        Ok(())
    });

    println!("STRIP shell — statements end with `;`, `.help` for meta commands");
    let stdin = std::io::stdin();
    let mut buffer = StatementBuffer::new();
    loop {
        print!(
            "{}",
            if buffer.is_pending() {
                "   ...> "
            } else {
                "strip> "
            }
        );
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if !buffer.is_pending() && (trimmed == ".quit" || trimmed == ".exit") {
            break;
        }
        if !buffer.is_pending() && trimmed.starts_with('.') {
            print!("{}", run_shell_input(&db, trimmed));
            continue;
        }
        for stmt in buffer.push_line(&line) {
            print!("{}", run_shell_input(&db, &stmt));
        }
    }
    println!("bye");
}
