module m (a, q);
  input a;
  output q;
  INV_X1_SVT u1 (.A(a), .Y(xu2 (.A(a), .Y(y));
  INV_X1_SVT u3 (.A(y), .Y(q));
endmodule
