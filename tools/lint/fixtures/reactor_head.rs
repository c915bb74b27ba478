// Lint fixture (never compiled): reactor code that builds a response
// head per response instead of taking the store's — three findings;
// mentions in comments or strings and the test module are allowed.

fn hit(version: Version, body: Bytes) -> EntryState {
    let resp = Response::ok(version, body); // finding 1
    EntryState::Ready(resp.head_bytes(), resp.body) // finding 2
}

fn splice(version: Version, len: usize) -> Bytes {
    Response::ok_head(version, len) // finding 3
}

fn ok_from_the_store(store: &ContentStore, t: TargetId, v: Version, body: Bytes) -> EntryState {
    // Not `Response::ok(..).head_bytes()`: the store built the head.
    let _why = "Response::ok_head( is what the table is built with";
    EntryState::Ready(store.ok_head(t, v), body)
}

#[cfg(test)]
mod tests {
    fn oracle(body: Bytes) -> Bytes {
        Response::ok(Version::Http11, body).head_bytes()
    }
}
