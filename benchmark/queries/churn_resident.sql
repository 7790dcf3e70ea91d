SELECT x, y, z, t FROM stream
SELECT AVG(z) FROM stream
SELECT x, y FROM stream WHERE t > 3
