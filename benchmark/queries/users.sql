SELECT uid, v FROM stream
