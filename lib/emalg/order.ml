let tagged cmp (k1, p1) (k2, p2) =
  let c = cmp k1 k2 in
  if c <> 0 then c else Int.compare p1 p2
