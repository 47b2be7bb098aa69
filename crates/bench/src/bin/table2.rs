//! Regenerates Table II: the eight applications, their domains, and
//! descriptions.

use stamp_util::AppKind;

fn main() {
    bench::cli::parse("table2");
    println!("TABLE II: The eight applications in the STAMP suite");
    println!("{:-<78}", "");
    println!("{:<12} {:<32} Description", "Application", "Domain");
    println!("{:-<78}", "");
    for app in AppKind::ALL {
        println!(
            "{:<12} {:<32} {}",
            app.name(),
            app.domain(),
            app.description()
        );
    }
}
