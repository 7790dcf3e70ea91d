SELECT x, y, z, t FROM stream
