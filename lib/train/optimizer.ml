module Mat = Dpv_tensor.Mat
module Vec = Dpv_tensor.Vec
module Layer = Dpv_nn.Layer
module Network = Dpv_nn.Network

type algo =
  | Sgd
  | Momentum of float
  | Adam of { beta1 : float; beta2 : float; eps : float }

(* First and second moment buffers per parameter tensor; SGD leaves them
   unused, momentum uses only the first. *)
type layer_state =
  | Dense_state of { m_w : Mat.t; v_w : Mat.t; m_b : Vec.t; v_b : Vec.t }
  | Bn_state of { m_g : Vec.t; v_g : Vec.t; m_be : Vec.t; v_be : Vec.t }
  | No_state

type t = {
  mutable lr : float;
  algo : algo;
  state : layer_state array;
  mutable steps : int;
}

let make_state net =
  Array.of_list
    (List.map
       (fun l ->
         match l with
         | Layer.Dense { weights; bias } | Layer.Conv2d { weights; bias; _ } ->
             let rows = Mat.rows weights and cols = Mat.cols weights in
             Dense_state
               {
                 m_w = Mat.zeros ~rows ~cols;
                 v_w = Mat.zeros ~rows ~cols;
                 m_b = Vec.zeros (Vec.dim bias);
                 v_b = Vec.zeros (Vec.dim bias);
               }
         | Layer.Batch_norm { gamma; _ } ->
             let d = Vec.dim gamma in
             Bn_state
               {
                 m_g = Vec.zeros d;
                 v_g = Vec.zeros d;
                 m_be = Vec.zeros d;
                 v_be = Vec.zeros d;
               }
         | Layer.Relu | Layer.Sigmoid | Layer.Tanh -> No_state)
       (Network.layers net))

let sgd ~lr net = { lr; algo = Sgd; state = make_state net; steps = 0 }

let momentum ~lr ~mu net =
  { lr; algo = Momentum mu; state = make_state net; steps = 0 }

let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(eps = 1e-8) ~lr net =
  { lr; algo = Adam { beta1; beta2; eps }; state = make_state net; steps = 0 }

(* One update of a flat parameter array from its gradient and moment
   arrays.  [bc1] and [bc2] are Adam's bias corrections [1 - beta^t] for
   this step. *)
let update t ~bc1 ~bc2 ~param ~grad ~m ~v =
  if Array.length grad <> Array.length param then
    invalid_arg "Optimizer.step: structure mismatch";
  match t.algo with
  | Sgd ->
      for k = 0 to Array.length param - 1 do
        param.(k) <- param.(k) -. (t.lr *. grad.(k))
      done
  | Momentum mu ->
      for k = 0 to Array.length param - 1 do
        let mk = (mu *. m.(k)) +. grad.(k) in
        m.(k) <- mk;
        param.(k) <- param.(k) -. (t.lr *. mk)
      done
  | Adam { beta1; beta2; eps } ->
      for k = 0 to Array.length param - 1 do
        let g = grad.(k) in
        let mk = (beta1 *. m.(k)) +. ((1.0 -. beta1) *. g) in
        let vk = (beta2 *. v.(k)) +. ((1.0 -. beta2) *. g *. g) in
        m.(k) <- mk;
        v.(k) <- vk;
        let m_hat = mk /. bc1 in
        let v_hat = vk /. bc2 in
        param.(k) <- param.(k) -. (t.lr *. m_hat /. (sqrt v_hat +. eps))
      done

let step t net grads =
  t.steps <- t.steps + 1;
  if Network.num_layers net <> Array.length grads then
    invalid_arg "Optimizer.step: grad length mismatch";
  let bc1, bc2 =
    match t.algo with
    | Adam { beta1; beta2; _ } ->
        let tstep = float_of_int t.steps in
        (1.0 -. (beta1 ** tstep), 1.0 -. (beta2 ** tstep))
    | Sgd | Momentum _ -> (1.0, 1.0)
  in
  Array.iteri
    (fun i g ->
      match (Network.layer net (i + 1), g, t.state.(i)) with
      | ( (Layer.Dense { weights; bias } | Layer.Conv2d { weights; bias; _ }),
          Grad.Dense_grad { d_weights; d_bias },
          Dense_state s ) ->
          update t ~bc1 ~bc2 ~param:(Mat.data weights)
            ~grad:(Mat.data d_weights) ~m:(Mat.data s.m_w) ~v:(Mat.data s.v_w);
          update t ~bc1 ~bc2 ~param:bias ~grad:d_bias ~m:s.m_b ~v:s.v_b
      | ( Layer.Batch_norm { gamma; beta; _ },
          Grad.Bn_grad { d_gamma; d_beta },
          Bn_state s ) ->
          update t ~bc1 ~bc2 ~param:gamma ~grad:d_gamma ~m:s.m_g ~v:s.v_g;
          update t ~bc1 ~bc2 ~param:beta ~grad:d_beta ~m:s.m_be ~v:s.v_be
      | (Layer.Relu | Layer.Sigmoid | Layer.Tanh), Grad.No_grad, No_state -> ()
      | _ -> invalid_arg "Optimizer.step: structure mismatch")
    grads

let set_lr t lr = t.lr <- lr
let lr t = t.lr
