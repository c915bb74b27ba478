// Lint fixture (never compiled): proto code starting threads of its
// own — four findings; scoped threads, comments, strings and the test
// module are allowed.

fn reader(stream: TcpStream) -> JoinHandle<()> {
    std::thread::spawn(move || drain(stream)) // finding 1
}

fn ticker() {
    let _ = thread::Builder::new().spawn(tick); // finding 2
    thread::spawn(accept_loop); // finding 3
}

fn scoped() {
    // Not `thread::spawn(`, and "thread::Builder" is only a string.
    std::thread::scope(|s| s.spawn(play));
}

// A test-only item is not the test module: code after it is live.
#[cfg(test)]
fn capped() {}

fn late() {
    std::thread::spawn(late_loop); // finding 4
}

#[cfg(test)]
mod tests {
    fn server() {
        std::thread::spawn(serve);
    }
}
