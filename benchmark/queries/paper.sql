SELECT regr_intercept(y, x) OVER (PARTITION BY z ORDER BY t) FROM (SELECT x, y, z, t FROM stream)
