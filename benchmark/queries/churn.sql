SELECT x, y, z FROM stream WHERE t > {n}
SELECT x, y FROM stream WHERE t > {n}
SELECT x, z FROM stream WHERE t > {n}
SELECT AVG(z) FROM stream WHERE t > {n}
SELECT x, y, AVG(z) AS za FROM stream WHERE t > {n} GROUP BY x, y
SELECT x FROM (SELECT x, y FROM stream WHERE t > {n})
SELECT x, y FROM stream WHERE t > {n} ORDER BY x LIMIT 5
SELECT COUNT(*) FROM stream WHERE t > {n}
SELECT MAX(x), MIN(y) FROM stream WHERE t > {n}
SELECT x, y, z, t FROM stream WHERE t > {n}
