SELECT tag FROM stream
