// Lint fixture (never compiled): proto code starting threads of its
// own — three findings; scoped threads, comments, strings and the test
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

#[cfg(test)]
mod tests {
    fn server() {
        std::thread::spawn(serve);
    }
}
