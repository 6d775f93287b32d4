module m (a, q);
  input a;
  output q;
  INV_X1_SVT u1 (.A(a), .Y(x)), .Y(y));
  INV_X1_SVT u2 (.A(y), .Y(q));
endmodule
