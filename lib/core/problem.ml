type spec = { n : int; k : int; a : int; b : int }
type variant = Right_grounded | Left_grounded | Two_sided | Unconstrained

let validate { n; k; a; b } =
  if n < 1 then Error "n must be >= 1"
  else if k < 1 then Error "k must be >= 1"
  else if k > n then Error "k must be <= n"
  else if a < 0 then Error "a must be >= 0"
  else if b < a then Error "b must be >= a"
  else if b > n then Error "b must be <= n"
  else if a * k > n then Error "infeasible: a * k > n (partitions cannot all reach a)"
  else if b * k < n then Error "infeasible: b * k < n (partitions cannot cover n)"
  else Ok ()

let validate_exn spec =
  match validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Problem.validate: " ^ msg)

let classify { n; a; b; _ } =
  match (a = 0, b = n) with
  | true, true -> Unconstrained
  | true, false -> Left_grounded
  | false, true -> Right_grounded
  | false, false -> Two_sided

let cut ({ n; k; a; b } as spec) i =
  if i <= 0 then 0
  else if i >= k then n
  else
    match classify spec with
    | Unconstrained -> n
    | Right_grounded -> i * a
    | Left_grounded -> min (i * b) n
    | Two_sided ->
        if 2 * a * k >= n || b * k <= 2 * n then ((i * n) + k - 1) / k
        else begin
          let k' = ((b * k) - n) / (b - a) in
          if i <= k' then i * a
          else
            let h = n - (a * k') and g = k - k' in
            (a * k') + ((((i - k') * h) + g - 1) / g)
        end

let nonempty ({ n; k; b; _ } as spec) =
  match classify spec with
  | Unconstrained -> 1
  | Left_grounded -> (n + b - 1) / b
  | Right_grounded | Two_sided -> k

let sizes spec = Array.init spec.k (fun i -> cut spec (i + 1) - cut spec i)

let even_spec ~n ~k = { n; k; a = n / k; b = (n + k - 1) / k }

let variant_name = function
  | Right_grounded -> "right-grounded"
  | Left_grounded -> "left-grounded"
  | Two_sided -> "two-sided"
  | Unconstrained -> "unconstrained"

let pp_variant ppf v = Format.pp_print_string ppf (variant_name v)

let pp_spec ppf { n; k; a; b } =
  Format.fprintf ppf "{ n = %d; k = %d; a = %d; b = %d }" n k a b
